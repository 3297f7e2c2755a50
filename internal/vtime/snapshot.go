package vtime

// Scheduler snapshot/restore: the serializable fingerprint of a scheduler's
// pending set. Callbacks are Go closures and cannot travel, so a snapshot
// records each event's (At, Seq, Tag) identity and a restore asks the caller
// to re-arm the callback for each. Federated checkpoints (internal/fednet)
// use the snapshot alone as a canonical, byte-comparable state digest;
// property tests use Restore to prove the pending set — heap order and
// same-time tie-breaks included — survives a snapshot/restore cycle.

import (
	"fmt"
	"sort"
)

// EventState identifies one pending event in a snapshot: its fire time, its
// original sequence number (the same-time tie-break), and its owner tag.
type EventState struct {
	At  Time
	Seq uint64
	Tag int32
}

// SchedulerState is a scheduler's serializable state: clock, sequence
// allocator, fired-event count, and the pending set sorted in firing order
// (At, then Seq). Two schedulers in the same logical state produce equal
// SchedulerStates, which is what makes the struct a determinism probe.
type SchedulerState struct {
	Now    Time
	Seq    uint64 // next sequence number to allocate
	Fired  uint64
	Events []EventState
}

// Snapshot captures the scheduler's current state. O(pending log pending).
func (s *Scheduler) Snapshot() SchedulerState {
	s.settle()
	st := SchedulerState{Now: s.now, Seq: s.seq, Fired: s.fired}
	st.Events = make([]EventState, 0, len(s.events))
	for _, ev := range s.events {
		st.Events = append(st.Events, EventState{At: ev.at, Seq: ev.seq, Tag: ev.tag})
	}
	sort.Slice(st.Events, func(i, j int) bool {
		if st.Events[i].At != st.Events[j].At {
			return st.Events[i].At < st.Events[j].At
		}
		return st.Events[i].Seq < st.Events[j].Seq
	})
	return st
}

// Restore rebuilds a snapshotted pending set on a fresh scheduler. arm is
// called once per event, in firing order, and must return the callback to
// re-attach; each event keeps its original sequence number, so same-time
// tie-breaks fire exactly as they would have in the snapshotted run, and
// events scheduled after the restore allocate sequences above every restored
// one. The receiver must be freshly constructed (nothing scheduled or fired).
func (s *Scheduler) Restore(st SchedulerState, arm func(EventState) func()) error {
	if len(s.events) != 0 || s.now != 0 || s.seq != 0 || s.fired != 0 {
		return fmt.Errorf("vtime: Restore needs a fresh scheduler")
	}
	for _, es := range st.Events {
		if es.At < st.Now {
			return fmt.Errorf("vtime: restore: event at %v before snapshot clock %v", es.At, st.Now)
		}
		if es.Seq >= st.Seq {
			return fmt.Errorf("vtime: restore: event seq %d not below next seq %d", es.Seq, st.Seq)
		}
		fn := arm(es)
		if fn == nil {
			return fmt.Errorf("vtime: restore: no callback for event at %v (seq %d, tag %d)", es.At, es.Seq, es.Tag)
		}
		s.push(es.At, es.Seq, es.Tag, fn)
	}
	s.now, s.seq, s.fired = st.Now, st.Seq, st.Fired
	return nil
}
