package fednet

// Scenario registry, worker environment, and the shared control-plane
// message bodies (setup, hello, reports).

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"modelnet/internal/bind"
	"modelnet/internal/edge"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// DataUDP and DataTCP select the data plane carrying cross-core tunnel
// messages. UDP is the paper's tunnel transport (IP-in-UDP encapsulation);
// TCP is the lossless fallback — the barrier protocol tolerates reordering
// (messages are applied in canonical order) but not loss.
const (
	DataUDP = "udp"
	DataTCP = "tcp"
)

// Scenario is a federable workload. Build runs on the coordinator and
// returns the target topology. Install runs on every worker after its shard
// is constructed: it must create hosts and traffic only for the VNs homed
// on the worker's shard (env.Homed), deterministically — every worker
// derives the same global plan from the scenario parameters and installs
// its slice of it. The returned report function, if non-nil, runs after the
// run completes and contributes the worker's scenario-specific results.
type Scenario struct {
	Build   func(params json.RawMessage) (*topology.Graph, error)
	Install func(env *WorkerEnv, params json.RawMessage) (func() json.RawMessage, error)
}

var scenarioMu sync.RWMutex
var scenarios = map[string]Scenario{}

// Register adds a named scenario to the registry. Workers resolve the
// coordinator's scenario name here, so every process of a federation must
// be built from a binary that registers the same names (typically via the
// owning package's init).
func Register(name string, s Scenario) {
	if s.Build == nil || s.Install == nil {
		panic("fednet: scenario " + name + " needs Build and Install")
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarios[name]; dup {
		panic("fednet: scenario " + name + " registered twice")
	}
	scenarios[name] = s
}

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupScenario(name string) (Scenario, error) {
	scenarioMu.RLock()
	s, ok := scenarios[name]
	scenarioMu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("fednet: unknown scenario %q (have %v)", name, Scenarios())
	}
	return s, nil
}

// WorkerEnv is the slice of a federated emulation one worker owns: the
// binding (shared, read-only), and the shard's scheduler and emulator.
// Scenario installers use it the way applications use modelnet.Emulation,
// restricted to homed VNs.
type WorkerEnv struct {
	Shard   int
	Binding *bind.Binding
	Sched   *vtime.Scheduler
	Emu     *emucore.Emulator

	homes []int
	hosts map[pipes.VN]*netstack.Host
}

// NumVNs reports how many VNs the federation binds (across all shards).
func (e *WorkerEnv) NumVNs() int { return e.Binding.NumVNs() }

// Homed reports whether a VN lives on this worker's shard.
func (e *WorkerEnv) Homed(vn pipes.VN) bool { return e.homes[vn] == e.Shard }

// NewHost returns the transport stack for a homed VN, creating it on first
// use. It panics on a VN homed elsewhere: that stack belongs to a different
// process.
func (e *WorkerEnv) NewHost(vn pipes.VN) *netstack.Host {
	if !e.Homed(vn) {
		panic(fmt.Sprintf("fednet: NewHost(%d): VN homed on shard %d, this is shard %d", vn, e.homes[vn], e.Shard))
	}
	if h, ok := e.hosts[vn]; ok {
		return h
	}
	h := netstack.NewHost(vn, e.Sched, e.Emu, e.Emu)
	e.hosts[vn] = h
	return h
}

// setup is the run configuration (the JSON SecConfig section of the chunked
// setup); the worker's shard view, the VN world map and the dynamics spec
// ride beside it as binary sections.
type setup struct {
	Shard     int             `json:"shard"`
	Cores     int             `json:"cores"`
	Seed      int64           `json:"seed"`
	Profile   emucore.Profile `json:"profile"`
	DataPlane string          `json:"data_plane"`
	DataAddrs []string        `json:"data_addrs"` // per shard, for DataPlane

	EdgeNodes int `json:"edge_nodes,omitempty"`

	Scenario          string          `json:"scenario"`
	Params            json.RawMessage `json:"params,omitempty"`
	CollectDeliveries bool            `json:"collect_deliveries,omitempty"`

	// RunForNs is the run's virtual-time budget (0 = run to quiescence).
	// Workers need it to enumerate the reroute epoch schedule over exactly
	// the coordinator's horizon.
	RunForNs int64 `json:"run_for_ns,omitempty"`

	// MaxDatagram bounds one UDP data-plane frame; 0 = DefaultMaxDatagram.
	MaxDatagram int `json:"max_datagram,omitempty"`

	// Edge is the gateway lease: each worker instantiates the mappings
	// whose ingress VN is homed on its shard and reports the real socket
	// address it bound in its setup ack. Nil = no live edge.
	Edge *edge.GatewayConfig `json:"edge,omitempty"`

	// Recoverable arms the failure/recovery protocol: the worker keeps its
	// per-peer send logs for the run's lifetime, tolerates peer connection
	// errors, keeps its TCP data-plane listener open for respawned peers,
	// and answers a respawned peer's TResend with its whole send log.
	Recoverable bool `json:"recoverable,omitempty"`

	// Trace has the worker record a virtual-time packet trace and stream
	// it to the coordinator (wire.TTrace) before its final report.
	Trace bool `json:"trace,omitempty"`
	// Metrics has the worker bind a loopback metrics endpoint and report
	// its address in the setup ack.
	Metrics bool `json:"metrics,omitempty"`
}

// setupAck is a worker's setup acknowledgment body: the real address of
// its live edge gateway, when the lease gave it one ("" otherwise), and of
// its metrics endpoint, when the setup asked for one.
type setupAck struct {
	GatewayAddr string `json:"gateway_addr,omitempty"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// hello is a worker's join frame body: the data-plane endpoints it listens
// on, one per supported plane.
type hello struct {
	TCPAddr string `json:"tcp_addr"`
	UDPAddr string `json:"udp_addr"`
	// Pid maps the joining connection back to the spawned process: shard
	// indices follow join order, not launch order, and fault injection and
	// recovery must target the right process.
	Pid int `json:"pid"`
}

// WorkerReport is one worker's final accounting.
type WorkerReport struct {
	Shard      int              `json:"shard"`
	Totals     emucore.Totals   `json:"totals"`
	Accuracy   emucore.Accuracy `json:"accuracy"`
	TunnelsIn  uint64           `json:"tunnels_in"`
	TunnelsOut uint64           `json:"tunnels_out"`
	// Frames and BytesOnWire price the worker's share of the data plane:
	// frames written (= syscalls on the UDP plane) and bytes including
	// framing. A round's messages per peer share frames, so Frames is far
	// below the message count.
	Frames      uint64 `json:"frames"`
	BytesOnWire uint64 `json:"bytes_on_wire"`
	// SetupBytes is what distribution cost this worker: the total size of
	// the setup chunk frames it received. StartupWallNs spans first setup
	// byte to setup-ack; both are first-class BENCH columns.
	SetupBytes    uint64 `json:"setup_bytes"`
	StartupWallNs int64  `json:"startup_wall_ns"`
	// PeakRSSBytes is the process's peak resident set (VmHWM) at report
	// time; MaterializedPipes counts the pipes this worker actually built —
	// the ones its shard owns.
	PeakRSSBytes      uint64 `json:"peak_rss_bytes"`
	MaterializedPipes int    `json:"materialized_pipes"`
	// RouteRPCs counts demand-paged summary fetches.
	RouteRPCs  uint64    `json:"route_rpcs,omitempty"`
	Deliveries []float64 `json:"deliveries,omitempty"`
	// PipeDrops is the per-pipe drop count vector, indexed by pipe ID.
	PipeDrops []uint64 `json:"pipe_drops,omitempty"`
	// DropsByReason is the unified drop taxonomy vector (indexed by
	// pipes.DropReason), with this worker's gateway rejections folded into
	// the oversize and gateway-reject slots.
	DropsByReason []uint64        `json:"drops_by_reason,omitempty"`
	Scenario      json.RawMessage `json:"scenario,omitempty"`
	// Profile is the worker's wall-clock / lookahead-utilization breakdown.
	Profile obs.ShardProfile `json:"profile"`
	// Edge counts this worker's live gateway traffic, when it hosted one.
	Edge *edge.GatewayStats `json:"edge,omitempty"`
}
