package parcore

// The per-shard half of a barrier round. Both transports run exactly this:
// the in-process runtime from each shard's goroutine, a federation worker
// from its control loop.

import (
	"time"

	"modelnet/internal/emucore"
	"modelnet/internal/obs"
	"modelnet/internal/vtime"
)

// Cmd is one shard's share of a barrier round.
type Cmd struct {
	// Grant is the bound the shard runs through (inclusive). Negative asks
	// for bounds only: apply, flush and report, run nothing.
	Grant vtime.Time
	// Drain makes the round a serial-drain turn at time Grant: the shard
	// runs only if its next event is due by then, and reports whether it did.
	Drain bool
	// Floor is the earliest stamp a live admission may take this round; a
	// transport with an edge gateway admits at it ahead of the step. Drive
	// keeps it strictly above every grant of the round, so an event admitted
	// at max(local clock, Floor) cannot fire inside the round that admits it
	// and fires no earlier than any peer shard's present.
	Floor vtime.Time
}

// Link is the transport under one shard's step: where the messages sent to
// it in the previous round arrive, and where its outbox goes.
type Link interface {
	Sender
	// Recv blocks until every message addressed to this shard in the
	// previous round has arrived and returns them. The slice is the link's
	// to reuse once the step returns.
	Recv() ([]Msg, error)
}

// Report is one shard's answer to a barrier round.
type Report struct {
	// Bounds describe the shard's state after the step.
	Bounds
	// Progressed reports that a drain turn fired at least one event.
	Progressed bool
	// Sent counts the messages this shard flushed during the round, and
	// Inflight those flushed toward it that its Bounds have not seen (its
	// next step applies them; Drive compensates). The transport fills both
	// in from its delivery accounting — a shard cannot see its peers'
	// outboxes.
	Sent, Inflight uint64
}

// Shard is one emulated core: an emulator on a private scheduler, the
// mailboxes on either side of it, its static synchronization inputs and its
// wall-clock profile.
type Shard struct {
	Sched   *vtime.Scheduler
	Emu     *emucore.Emulator
	Outbox  *Outbox
	Applier *Applier
	Sync    ShardSync
	// Prof is written by Step and nowhere else: wait + apply + run (or
	// drain) + flush + bounds add up to the wall clock spent in Step.
	Prof obs.ShardProfile
}

// Step is the whole per-shard loop body of the conservative protocol:
// receive and apply the previous round's messages, run through the grant,
// flush the outbox, report bounds. It is the only caller of Applier.Apply,
// the scheduler's RunUntil and ShardBounds in a parallel or federated run.
func (s *Shard) Step(c Cmd, l Link) (Report, error) {
	t0 := time.Now()
	msgs, err := l.Recv()
	if err != nil {
		return Report{}, err
	}
	t1 := time.Now()
	if err := s.Applier.Apply(msgs); err != nil {
		return Report{}, err
	}
	t2 := time.Now()
	var rep Report
	if c.Grant >= 0 && (!c.Drain || s.Sched.NextEventTime() <= c.Grant) {
		f0 := s.Sched.Fired()
		s.Sched.RunUntil(c.Grant)
		fired := s.Sched.Fired() - f0
		s.Prof.EventsFired += fired
		if c.Drain {
			rep.Progressed = true
		} else {
			s.Prof.Windows++
			if fired > 0 {
				s.Prof.ActiveWindows++
			}
		}
	}
	t3 := time.Now()
	if err := s.Outbox.Flush(l); err != nil {
		return Report{}, err
	}
	t4 := time.Now()
	rep.Bounds = ShardBounds(s.Sched, s.Emu, s.Sync, s.Applier)
	t5 := time.Now()

	s.Prof.WaitWallNs += uint64(t1.Sub(t0))
	s.Prof.ApplyWallNs += uint64(t2.Sub(t1))
	if c.Drain {
		s.Prof.DrainWallNs += uint64(t3.Sub(t2))
	} else {
		s.Prof.RunWallNs += uint64(t3.Sub(t2))
	}
	s.Prof.FlushWallNs += uint64(t4.Sub(t3))
	s.Prof.BoundsWallNs += uint64(t5.Sub(t4))
	return rep, nil
}
