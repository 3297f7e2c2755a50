package main

// Benchmark-side spans: recorded around the public calls the benchmark
// makes, kept in memory, written once at exit as Chrome trace-event JSON
// (the format obs.Trace.WriteChrome emits for packet traces). Nothing here
// touches the program under test; spans inside it are a later change.

import (
	"encoding/json"
	"os"
	"time"

	"modelnet/internal/obs"
)

// span is one timed interval of a run.
type span struct {
	Name string `json:"name"`
	// Parent indexes the run's span list; -1 marks the root.
	Parent  int   `json:"parent"`
	StartNs int64 `json:"start_ns"` // since the child process started
	DurNs   int64 `json:"dur_ns"`
	// Row separates the driver (0) from the per-shard bucket rows (1+shard).
	Row int `json:"row"`
}

// spanRecorder collects a run's spans; off, begin/end/add cost one branch.
type spanRecorder struct {
	on    bool
	spans []span
}

func (r *spanRecorder) begin(name string, parent int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, StartNs: time.Since(procStart).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if !r.on {
		return
	}
	r.spans[id].DurNs = time.Since(procStart).Nanoseconds() - r.spans[id].StartNs
}

// durNs is the duration of the first span of that name; 0 when there is none.
func (r *spanRecorder) durNs(name string) int64 {
	for _, s := range r.spans {
		if s.Name == name {
			return s.DurNs
		}
	}
	return 0
}

// add records an interval measured elsewhere.
func (r *spanRecorder) add(name string, parent int, from, to time.Time) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent,
		StartNs: from.Sub(procStart).Nanoseconds(), DurNs: to.Sub(from).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// addShardSpans attaches each shard's run/flush/apply/wait/drain wall
// buckets as children of the timed phase, on the shard's own row. The
// reports carry totals, not intervals, so the buckets are laid end to end
// from the phase's start: widths are measured, positions are not.
func addShardSpans(r *spanRecorder, parent int, phaseStart time.Time, shards []obs.ShardProfile) {
	if !r.on {
		return
	}
	for _, s := range shards {
		at := phaseStart.Sub(procStart).Nanoseconds()
		for _, b := range []struct {
			name string
			ns   uint64
		}{
			{"shard.run", s.RunWallNs}, {"shard.flush", s.FlushWallNs}, {"shard.apply", s.ApplyWallNs},
			{"shard.wait", s.WaitWallNs}, {"shard.drain", s.DrainWallNs},
		} {
			r.spans = append(r.spans, span{Name: b.name, Parent: parent, StartNs: at, DurNs: int64(b.ns), Row: 1 + s.Shard})
			at += int64(b.ns)
		}
	}
}

// selfNs is a span's duration minus the part its children on the same row
// cover.
func selfNs(spans []span, id int) int64 {
	self := spans[id].DurNs
	for _, s := range spans {
		if s.Parent == id && s.Row == spans[id].Row {
			self -= s.DurNs
		}
	}
	return self
}

// writeChrome writes every traced run's spans as one Chrome trace: one
// process per workload, one thread per row.
func writeChrome(path string, runs map[string][]span, order []string) error {
	type event struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"` // microseconds
		Dur   float64        `json:"dur"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args,omitempty"`
	}
	var out []event
	for pid, name := range order {
		spans := runs[name]
		out = append(out, event{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": name}})
		for id, s := range spans {
			out = append(out, event{
				Name: s.Name, Phase: "X", TS: float64(s.StartNs) / 1e3, Dur: float64(s.DurNs) / 1e3,
				PID: pid, TID: s.Row,
				Args: map[string]any{"id": id, "parent": s.Parent, "self_us": float64(selfNs(spans, id)) / 1e3},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": out, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
