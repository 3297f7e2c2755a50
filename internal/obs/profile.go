package obs

// Sync/barrier profiling types. parcore's conservative loop and the fednet
// coordinator fill a DriveProfile (where the driver's wall-clock went);
// each shard fills a ShardProfile (where its wall-clock went, and how much
// of the granted lookahead it actually used). RunProfile is the flat JSON
// artifact the CLI writes for -profile-out.

import (
	"encoding/json"
	"fmt"
	"os"
)

// DriveProfile is the wall-clock breakdown of one conservative
// synchronization loop (parcore.Drive), from the driver's point of view.
// The four buckets sum to the loop's wall clock.
type DriveProfile struct {
	// BarrierWallNs is what the loop spends outside window rounds, drain
	// rounds and pacing sleeps: the bounds-only round that opens every
	// drive, and the grant algebra between rounds.
	BarrierWallNs uint64 `json:"barrier_wall_ns"`
	// ComputeWallNs is time in window rounds: every shard applying,
	// running, flushing and reporting, in parallel.
	ComputeWallNs uint64 `json:"compute_wall_ns"`
	// SerialWallNs is time in drain rounds (zero/exhausted lookahead).
	SerialWallNs uint64 `json:"serial_wall_ns"`
	// IdleWallNs is pacing sleep: the loop idling so virtual time does not
	// outrun the wall (real-time runs only).
	IdleWallNs uint64 `json:"idle_wall_ns"`
}

// ShardProfile is one shard's wall-clock and lookahead-utilization
// breakdown across a run.
type ShardProfile struct {
	Shard int `json:"shard"`
	// Wall-clock per stage of parcore.Shard.Step, which writes them all and
	// whose wall clock they sum to: waiting for inbound messages (federated
	// collector waits), applying them, running the window or the serial
	// drain turn, flushing the outbox, computing bounds.
	FlushWallNs  uint64 `json:"flush_wall_ns"`
	WaitWallNs   uint64 `json:"wait_wall_ns"`
	ApplyWallNs  uint64 `json:"apply_wall_ns"`
	RunWallNs    uint64 `json:"run_wall_ns"`
	DrainWallNs  uint64 `json:"drain_wall_ns"`
	BoundsWallNs uint64 `json:"bounds_wall_ns"`
	// Windows counts windows granted to the shard; ActiveWindows those in
	// which it actually fired at least one event. Their ratio is the
	// shard's lookahead utilization: how often the granted horizon covered
	// real work rather than forced idling.
	Windows       uint64 `json:"windows"`
	ActiveWindows uint64 `json:"active_windows"`
	// EventsFired counts scheduler events fired during windows and drains.
	EventsFired uint64 `json:"events_fired"`
}

// LookaheadUtilization reports ActiveWindows/Windows (0 with no windows).
func (p ShardProfile) LookaheadUtilization() float64 {
	if p.Windows == 0 {
		return 0
	}
	return float64(p.ActiveWindows) / float64(p.Windows)
}

// RunProfile is the -profile-out artifact: one run's synchronization
// profile across the driver and every shard.
type RunProfile struct {
	Mode         string  `json:"mode"`  // "seq", "parallel", "fednet"
	Cores        int     `json:"cores"` // shard count (1 = sequential)
	WallMS       float64 `json:"wall_ms"`
	Windows      uint64  `json:"windows"`
	SerialRounds uint64  `json:"serial_rounds"`
	Messages     uint64  `json:"messages"`
	// The grant columns summarize the effective per-window grant spans the
	// drive handed out: how far past the static cut lookahead the queue
	// horizon let shards run.
	GrantMinMS  float64 `json:"grant_min_ms,omitempty"`
	GrantMeanMS float64 `json:"grant_mean_ms,omitempty"`
	GrantMaxMS  float64 `json:"grant_max_ms,omitempty"`
	// Recoveries counts mid-run worker respawns under the federated
	// checkpoint/restart machinery; RecoveryWallMS is their total
	// wall-clock cost, round replay included.
	Recoveries     int            `json:"recoveries,omitempty"`
	RecoveryWallMS float64        `json:"recovery_wall_ms,omitempty"`
	Drive          DriveProfile   `json:"drive"`
	Shards         []ShardProfile `json:"shards,omitempty"`
}

// SyncWallNs is what synchronization costs the run: the wall clock of its
// window and drain rounds less the busiest shard's work in them (everything
// in its Step but the wait) — the time even the critical shard spent
// parked at a barrier or on the transport. Zero without shard profiles.
// (Drive.BarrierWallNs is not this: a barrier is part of every round now,
// so that bucket only holds the driver's own grant algebra.)
func (p *RunProfile) SyncWallNs() uint64 {
	var busiest uint64
	for _, sp := range p.Shards {
		if w := sp.ApplyWallNs + sp.RunWallNs + sp.DrainWallNs + sp.FlushWallNs + sp.BoundsWallNs; w > busiest {
			busiest = w
		}
	}
	rounds := p.Drive.ComputeWallNs + p.Drive.SerialWallNs
	if busiest == 0 || busiest > rounds {
		return 0
	}
	return rounds - busiest
}

// SyncLine renders the one-line synchronization summary every parallel and
// federated run report prints: window count and rate, serial rounds, the
// synchronization share of the run's wall clock, and the effective grant
// spread.
func (p *RunProfile) SyncLine() string {
	perSec := 0.0
	if p.WallMS > 0 {
		perSec = float64(p.Windows) / (p.WallMS / 1000)
	}
	// The share is measured against the run's wall clock when the caller
	// filled it, else against the drive loop's own accounted time.
	wallNs := p.WallMS * 1e6
	if wallNs <= 0 {
		wallNs = float64(p.Drive.BarrierWallNs + p.Drive.ComputeWallNs +
			p.Drive.SerialWallNs + p.Drive.IdleWallNs)
	}
	share := 0.0
	if wallNs > 0 {
		share = 100 * float64(p.SyncWallNs()) / wallNs
	}
	s := fmt.Sprintf("%d windows (%.0f windows/s), %d serial rounds, %d messages, sync %.1f%% of wall",
		p.Windows, perSec, p.SerialRounds, p.Messages, share)
	if p.GrantMeanMS > 0 {
		s += fmt.Sprintf(", grant %.2f/%.2f/%.2f ms min/mean/max",
			p.GrantMinMS, p.GrantMeanMS, p.GrantMaxMS)
	}
	return s
}

// WriteFile writes the profile as indented JSON.
func (p *RunProfile) WriteFile(path string) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
