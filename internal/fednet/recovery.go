package fednet

// The coordinator half of checkpoint/restart fault tolerance. The design is
// replay-based: scheduler callbacks are Go closures and cannot travel, so a
// dead worker is not restored from its checkpoint — it is respawned, rebuilt
// through the same deterministic setup, and driven through the logged round
// prefix while the live workers stand by untouched (a round's barrier wait
// only ever needs the *previous* round's flush data, so no live worker is
// ever rolled back). The checkpoint blobs are determinism anchors, not
// restore sources: every replayed reply is byte-compared against the logged
// one, and the replayed state digest against the stored blob, so divergence
// surfaces as a loud error instead of silent drift. The respawned worker's
// missing inbox is reconstructed peer-side over the data plane (TResend —
// see handleRecoverReq), never through the control plane, because a live
// worker's control loop may be blocked in the very barrier wait the
// recovery feeds.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"modelnet/internal/fednet/wire"
)

// FailSpec plants one fault for the crash-sweep harness: worker Shard dies
// at step round Round (1-based, counting every TStep round).
type FailSpec struct {
	Shard int
	Round int
	// Mode selects how the worker dies: FailExit (default; the worker
	// os.Exits on receipt of the round's TStep — precise and portable) or
	// FailSigkill (the coordinator SIGKILLs the process at the round's
	// start — a real unannounced death, racing the round's own frames).
	Mode string
}

// Fault-injection modes and recovery defaults.
const (
	FailExit    = "exit"
	FailSigkill = "sigkill"

	// DefaultCkptEvery is the default checkpoint period in step rounds.
	DefaultCkptEvery = 4
	// DefaultMaxRecoveries bounds respawns per run; the run fails once
	// they are exhausted.
	DefaultMaxRecoveries = 3
)

// shardDeadError is the typed liveness signal: worker i's control
// connection failed mid-protocol. The recovery machinery catches it;
// without recovery it surfaces verbatim, naming the dead shard.
type shardDeadError struct {
	shard int
	cause error
}

func (e *shardDeadError) Error() string {
	return fmt.Sprintf("fednet: shard %d died: %v", e.shard, e.cause)
}

func (e *shardDeadError) Unwrap() error { return e.cause }

// loggedRound is one completed barrier round: the per-shard request bodies
// and the per-shard replies, byte-exact. Replay re-serves the bodies and
// demands byte-identical replies.
type loggedRound struct {
	bodies  [][]byte
	replies [][]byte
	ckpt    bool
}

// recoveryState is the coordinator's checkpoint/restart engine.
type recoveryState struct {
	ln        net.Listener
	join      string
	fed       int // the federation's ordinal in this process (SpawnWorkers)
	timeout   time.Duration
	dataPlane string
	log       func(format string, args ...any)

	// spawned and addrs are shared with Run's slices: recovery replaces
	// elements in place, so the deferred stopWorkers/waitWorkers and the
	// cfgFor closure all see the current fleet.
	spawned []*spawnedWorker
	addrs   []string

	// sendSetup re-distributes a shard's setup (regenerated against the
	// current addrs) over a fresh control conn.
	sendSetup func(i int, c net.Conn) error

	ckptEvery int
	ckptDir   string

	cmdLog []loggedRound
	// ckpts[i] is shard i's latest checkpoint blob; ckptRound the cmdLog
	// index of the round that produced it (-1 before the first checkpoint).
	ckpts     [][]byte
	ckptRound int

	recoveries     int
	recoveryWallNs int64
}

// logRound appends a completed round and stores any checkpoint digests.
func (r *recoveryState) logRound(bodies, replies [][]byte, ckpt bool, ckpts [][]byte) {
	r.cmdLog = append(r.cmdLog, loggedRound{bodies: bodies, replies: replies, ckpt: ckpt})
	if !ckpt {
		return
	}
	r.ckptRound = len(r.cmdLog) - 1
	for i, blob := range ckpts {
		if blob == nil {
			continue
		}
		r.ckpts[i] = blob
		if r.ckptDir != "" {
			path := filepath.Join(r.ckptDir, fmt.Sprintf("shard-%d.ckpt", i))
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				r.log("fednet: persist checkpoint for shard %d: %v", i, err)
			}
		}
	}
}

// recover brings shard i back from the dead: reap the corpse, respawn,
// re-admit, replay the setup and the logged rounds, verify reconvergence.
// The live workers need no coordinator attention — the respawned worker's
// data-plane announcement drives their endpoint swap and log resends.
func (r *recoveryState) recover(t *coordTransport, i int) error {
	if r.recoveries >= DefaultMaxRecoveries {
		return fmt.Errorf("fednet: shard %d died and the run's %d recoveries are exhausted", i, DefaultMaxRecoveries)
	}
	start := time.Now()
	r.recoveries++
	r.log("fednet: shard %d died; respawning (recovery %d of %d, %d rounds to replay)",
		i, r.recoveries, DefaultMaxRecoveries, len(r.cmdLog))
	if w := r.spawned[i]; w != nil {
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		_ = w.cmd.Wait() // reap; a fault exit status is expected here
	}
	t.conns[i].Close()

	ws, err := SpawnWorkers(1, r.join, r.fed)
	if err != nil {
		return fmt.Errorf("fednet: respawn shard %d: %w", i, err)
	}
	r.spawned[i] = ws[0]
	t.spawned[i] = ws[0]
	conn, h, err := acceptOne(r.ln, r.timeout)
	if err != nil {
		return fmt.Errorf("fednet: respawned shard %d join: %w", i, err)
	}
	if r.dataPlane == DataUDP {
		r.addrs[i] = h.UDPAddr
	} else {
		r.addrs[i] = h.TCPAddr
	}
	t.conns[i] = conn
	// Mark the joiner as a respawn before its setup: the worker then skips
	// fresh mesh formation and announces itself to the live peers instead.
	if err := wire.WriteFrame(conn, wire.TRecover, wire.Recover{}.Encode()); err != nil {
		return fmt.Errorf("fednet: respawned shard %d: %w", i, err)
	}
	if err := r.sendSetup(i, conn); err != nil {
		return err
	}
	typ, _, err := t.read(i)
	if err != nil {
		return fmt.Errorf("fednet: respawned shard %d setup: %w", i, err)
	}
	if typ != wire.TSetupAck {
		return fmt.Errorf("fednet: respawned shard %d: expected setup ack, got frame type %d", i, typ)
	}
	if err := r.replay(t, i); err != nil {
		return err
	}
	r.recoveryWallNs += int64(time.Since(start))
	r.log("fednet: shard %d recovered in %v", i, time.Since(start))
	return nil
}

// replay drives the respawned shard through the logged round prefix and
// verifies reconvergence: every reply must be byte-identical to the logged
// one, and the digest at the latest checkpointed round byte-identical to
// the stored blob. Any mismatch is a determinism violation and fails the
// run — resuming from diverged state would corrupt it silently.
func (r *recoveryState) replay(t *coordTransport, i int) error {
	for ri, lr := range r.cmdLog {
		if err := wire.WriteFrame(t.conns[i], wire.TStep, lr.bodies[i]); err != nil {
			return fmt.Errorf("fednet: replay round %d to shard %d: %w", ri, i, err)
		}
		reply, blob, err := t.readDone(i, lr.ckpt)
		if err != nil {
			return fmt.Errorf("fednet: replay round %d to shard %d: %w", ri, i, err)
		}
		if !bytes.Equal(reply, lr.replies[i]) {
			return fmt.Errorf("fednet: shard %d diverged on replay at round %d: reply differs from the original run (determinism violation)", i, ri)
		}
		// Digests from superseded checkpoint rounds were not kept; only the
		// latest one has a stored blob to compare against.
		if lr.ckpt && ri == r.ckptRound && !bytes.Equal(blob, r.ckpts[i]) {
			return fmt.Errorf("fednet: shard %d diverged on replay at round %d: checkpoint digest differs from the stored blob (determinism violation)", i, ri)
		}
	}
	return nil
}
