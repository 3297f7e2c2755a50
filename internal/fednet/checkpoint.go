package fednet

// The worker half of the failure/recovery protocol: the barrier checkpoint
// digest (buildCheckpoint) and the data-plane recovery request handler
// (handleRecoverReq). The digest is not a restore source — scheduler
// callbacks are closures and cannot travel — it is the canonical,
// byte-comparable fingerprint the coordinator uses to prove a respawned
// worker's replay reconverged on the crashed worker's exact state.

import (
	"fmt"
	"net"
	"sort"

	"modelnet/internal/fednet/wire"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// FaultExitCode is the exit status of a worker dying to an injected fault
// (Options.FailSpec, exit mode), distinct from ordinary failure exits so a
// harness can tell the planted crash from an accidental one.
const FaultExitCode = 7

// handleRecoverReq serves a respawned peer's data-plane recovery request.
// It runs on a reader goroutine — the control goroutine may be blocked in a
// barrier wait for the very messages this replays. Endpoint first, then the
// channel reset, then the log snapshot: a concurrent send that misses the
// snapshot was sent after the endpoint swap and reaches the respawn on its
// own (its collector is lenient, so overlap is dropped, not fatal).
func (w *workerState) handleRecoverReq(peer int, src *net.UDPAddr) error {
	if peer < 0 || peer >= w.cfg.Cores || peer == w.cfg.Shard {
		return fmt.Errorf("fednet: recovery request for out-of-range shard %d", peer)
	}
	if src != nil {
		w.dp.endMu.Lock()
		w.dp.udpPeers[peer] = src
		w.dp.endMu.Unlock()
	}
	w.col.reset(peer)
	return w.dp.resend(peer, w.dp.sendLog.snapshot(peer))
}

// buildCheckpoint assembles the shard's canonical barrier state digest:
// scheduler queue identity, channel counters, emulator totals and drop
// taxonomy, applier bucket shape, the dynamics cursor, and every
// materialized pipe's complete state. Called at the quiet point right after
// a step's flush, so the outbox is empty by construction.
func (w *workerState) buildCheckpoint() (*wire.Checkpoint, error) {
	sst := w.Sched.Snapshot()
	c := &wire.Checkpoint{
		Shard:           uint32(w.cfg.Shard),
		Cores:           uint32(w.cfg.Cores),
		Round:           uint32(w.stepsSeen),
		NowNs:           int64(sst.Now),
		SchedSeq:        sst.Seq,
		SchedFired:      sst.Fired,
		OutboxSeq:       w.Outbox.Seq(),
		Sent:            append([]uint64(nil), w.sent...),
		Inbox:           w.col.deliveredVec(),
		DeliverySamples: uint64(len(w.deliveries)),
	}
	for _, ev := range sst.Events {
		c.Events = append(c.Events, wire.CkptEvent{AtNs: int64(ev.At), Seq: ev.Seq, Tag: ev.Tag})
	}
	tot := w.Emu.Totals()
	c.Injected, c.DeliveredPkts, c.NoRoute = tot.Injected, tot.Delivered, tot.NoRoute
	c.PhysDrops, c.VirtualDrops, c.InFlight = tot.PhysDrops, tot.VirtualDrops, int64(tot.InFlight)
	c.DropsByReason = w.Emu.DropsByReason()
	w.Applier.ScanBuckets(func(fire vtime.Time, count int) {
		c.Buckets = append(c.Buckets, wire.CkptBucket{FireNs: int64(fire), Count: uint32(count)})
	})
	if w.eng != nil {
		st, err := w.eng.Snapshot()
		if err != nil {
			return nil, err
		}
		c.HasDyn = true
		c.Dyn.Applied, c.Dyn.Reroutes = st.Applied, st.Reroutes
		for _, l := range st.Down {
			c.Dyn.Down = append(c.Dyn.Down, uint32(l))
		}
		for _, b := range st.Bases {
			c.Dyn.BasesNs = append(c.Dyn.BasesNs, int64(b))
		}
		for _, t := range st.PendingReroutes {
			c.Dyn.PendingNs = append(c.Dyn.PendingNs, int64(t))
		}
	}
	var scanErr error
	w.Emu.ScanMaterialized(func(p *pipes.Pipe) {
		cp, err := ckptPipe(p)
		if err != nil {
			if scanErr == nil {
				scanErr = err
			}
			return
		}
		c.Pipes = append(c.Pipes, cp)
	})
	if scanErr != nil {
		return nil, scanErr
	}
	sort.Slice(c.Pipes, func(i, j int) bool { return c.Pipes[i].ID < c.Pipes[j].ID })
	return c, nil
}

// ckptPipe converts one pipe's snapshot to its canonical wire form.
func ckptPipe(p *pipes.Pipe) (wire.CkptPipe, error) {
	st := p.Snapshot()
	cp := wire.CkptPipe{
		ID:             uint32(p.ID()),
		BandwidthBps:   st.Params.BandwidthBps,
		LatencyNs:      int64(st.Params.Latency),
		LossRate:       st.Params.LossRate,
		QueuePkts:      int32(st.Params.QueuePkts),
		Down:           st.Params.Down,
		RedAvg:         st.RED.Avg,
		RedCount:       int64(st.RED.Count),
		RedIdleSinceNs: int64(st.RED.IdleSince),
		RedIdle:        st.RED.Idle,
		LastTxDoneNs:   int64(st.LastTxDone),
		LastExitNs:     int64(st.LastExit),
		Draws:          st.Draws,
		Accepted:       st.Accepted,
		Drops:          st.Drops[:],
		BytesIn:        st.BytesIn,
		BytesOut:       st.BytesOut,
		Delivered:      st.Delivered,
	}
	if r := st.Params.RED; r != nil {
		cp.HasRED = true
		cp.REDMinThresh, cp.REDMaxThresh = r.MinThresh, r.MaxThresh
		cp.REDMaxP, cp.REDWeight = r.MaxP, r.Weight
	}
	for _, e := range st.Entries {
		pw, err := wire.EncodePacket(e.Pkt)
		if err != nil {
			return cp, err
		}
		cp.Entries = append(cp.Entries, wire.CkptEntry{Pkt: pw, TxDoneNs: int64(e.TxDone), ExitNs: int64(e.Exit)})
	}
	return cp, nil
}
