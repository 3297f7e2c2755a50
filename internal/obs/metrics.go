package obs

// Live metrics: a small atomic counter set served over HTTP in Prometheus
// text format (GET /metrics) and as flat JSON (GET /metrics.json), stdlib
// only. The coordinator and every federated worker can each bind one; a
// nil *Metrics disables every update site, mirroring the Tracer pattern.
// The same listener serves the process's pprof handlers under /debug/pprof/.

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync/atomic"
	"time"
)

// Metrics is a process's live emulation gauges and counters. All fields
// update atomically; the HTTP handler snapshots them on demand.
type Metrics struct {
	Role  string // "coordinator", "worker", "local"
	Shard int    // -1 for the coordinator / sequential mode

	start time.Time

	windows      atomic.Uint64 // parallel windows completed
	serialRounds atomic.Uint64 // serial drain rounds completed
	messages     atomic.Uint64 // cross-shard messages exchanged
	vtimeNs      atomic.Int64  // emulation virtual clock
	lagNs        atomic.Int64  // wall clock minus pacing deadline (real-time runs)

	frames atomic.Uint64 // data-plane frames written
	bytes  atomic.Uint64 // data-plane bytes written (incl. framing)

	ingressPkts  atomic.Uint64 // gateway: real datagrams admitted
	ingressBytes atomic.Uint64
	egressPkts   atomic.Uint64 // gateway: real datagrams emitted
	egressBytes  atomic.Uint64
	gatewayDrops atomic.Uint64 // gateway: oversize + unmapped + queue drops
}

// NewMetrics returns an enabled metrics set.
func NewMetrics(role string, shard int) *Metrics {
	return &Metrics{Role: role, Shard: shard, start: time.Now()}
}

// AddWindows bumps the completed-window counter.
func (m *Metrics) AddWindows(n uint64) {
	if m != nil {
		m.windows.Add(n)
	}
}

// AddSerialRounds bumps the serial drain-round counter.
func (m *Metrics) AddSerialRounds(n uint64) {
	if m != nil {
		m.serialRounds.Add(n)
	}
}

// SetMessages sets the cumulative cross-shard message count.
func (m *Metrics) SetMessages(n uint64) {
	if m != nil {
		m.messages.Store(n)
	}
}

// SetVTime publishes the emulation's virtual clock.
func (m *Metrics) SetVTime(ns int64) {
	if m != nil {
		m.vtimeNs.Store(ns)
	}
}

// SetLag publishes the pacing lag: wall clock minus the virtual deadline's
// wall mapping. Positive = the emulation is behind real time.
func (m *Metrics) SetLag(ns int64) {
	if m != nil {
		m.lagNs.Store(ns)
	}
}

// SetPlane publishes the data-plane frame/byte counters.
func (m *Metrics) SetPlane(frames, bytes uint64) {
	if m != nil {
		m.frames.Store(frames)
		m.bytes.Store(bytes)
	}
}

// SetGateway publishes live-edge gateway counters.
func (m *Metrics) SetGateway(inPkts, inBytes, outPkts, outBytes, drops uint64) {
	if m != nil {
		m.ingressPkts.Store(inPkts)
		m.ingressBytes.Store(inBytes)
		m.egressPkts.Store(outPkts)
		m.egressBytes.Store(outBytes)
		m.gatewayDrops.Store(drops)
	}
}

// snapshot flattens the metric set for both export formats.
func (m *Metrics) snapshot() map[string]float64 {
	return map[string]float64{
		"modelnet_uptime_seconds":          time.Since(m.start).Seconds(),
		"modelnet_windows_total":           float64(m.windows.Load()),
		"modelnet_serial_rounds_total":     float64(m.serialRounds.Load()),
		"modelnet_messages_total":          float64(m.messages.Load()),
		"modelnet_vtime_seconds":           float64(m.vtimeNs.Load()) / 1e9,
		"modelnet_clock_lag_seconds":       float64(m.lagNs.Load()) / 1e9,
		"modelnet_plane_frames_total":      float64(m.frames.Load()),
		"modelnet_plane_bytes_total":       float64(m.bytes.Load()),
		"modelnet_gateway_ingress_packets": float64(m.ingressPkts.Load()),
		"modelnet_gateway_ingress_bytes":   float64(m.ingressBytes.Load()),
		"modelnet_gateway_egress_packets":  float64(m.egressPkts.Load()),
		"modelnet_gateway_egress_bytes":    float64(m.egressBytes.Load()),
		"modelnet_gateway_dropped_total":   float64(m.gatewayDrops.Load()),
	}
}

// metricHelp documents the Prometheus exposition.
var metricHelp = map[string]string{
	"modelnet_uptime_seconds":          "seconds since the metrics endpoint came up",
	"modelnet_windows_total":           "parallel synchronization windows completed",
	"modelnet_serial_rounds_total":     "serial drain rounds completed",
	"modelnet_messages_total":          "cross-shard tunnel messages exchanged",
	"modelnet_vtime_seconds":           "emulation virtual clock",
	"modelnet_clock_lag_seconds":       "wall clock minus pacing deadline (positive = behind)",
	"modelnet_plane_frames_total":      "data-plane frames written",
	"modelnet_plane_bytes_total":       "data-plane bytes written including framing",
	"modelnet_gateway_ingress_packets": "real datagrams admitted by the live edge gateway",
	"modelnet_gateway_ingress_bytes":   "real bytes admitted by the live edge gateway",
	"modelnet_gateway_egress_packets":  "real datagrams emitted by the live edge gateway",
	"modelnet_gateway_egress_bytes":    "real bytes emitted by the live edge gateway",
	"modelnet_gateway_dropped_total":   "gateway drops (oversize + unmapped + queue-full)",
}

// ServeHTTP renders /metrics (Prometheus text, gauge-typed with a
// role/shard label) and /metrics.json (flat JSON).
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	snap := m.snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	if r.URL.Path == "/metrics.json" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\n  %q: %q,\n  %q: %d", "role", m.Role, "shard", m.Shard)
		for _, n := range names {
			fmt.Fprintf(w, ",\n  %q: %g", n, snap[n])
		}
		fmt.Fprint(w, "\n}\n")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, n := range names {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{role=%q,shard=\"%d\"} %g\n",
			n, metricHelp[n], n, n, m.Role, m.Shard, snap[n])
	}
}

// Serve binds addr (host:port; port 0 picks one) and serves the metrics
// endpoint — and, under /debug/pprof/, the live profiles of this process —
// until the returned closer runs. It reports the bound address.
func (m *Metrics) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", m)
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also serves the named profiles (heap, goroutine, ...)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), srv.Close, nil
}
