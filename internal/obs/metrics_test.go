package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.AddWindows(1)
	m.AddSerialRounds(1)
	m.SetMessages(1)
	m.SetVTime(1)
	m.SetLag(1)
	m.SetPlane(1, 1)
	m.SetGateway(1, 1, 1, 1, 1) // must not panic
}

func TestMetricsServe(t *testing.T) {
	m := NewMetrics("worker", 3)
	m.AddWindows(7)
	m.AddSerialRounds(2)
	m.SetMessages(41)
	m.SetVTime(1_500_000_000)
	m.SetPlane(10, 2048)
	m.SetGateway(5, 500, 4, 400, 1)

	addr, closeFn, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		`modelnet_windows_total{role="worker",shard="3"} 7`,
		`modelnet_serial_rounds_total{role="worker",shard="3"} 2`,
		`modelnet_messages_total{role="worker",shard="3"} 41`,
		`modelnet_vtime_seconds{role="worker",shard="3"} 1.5`,
		`modelnet_plane_bytes_total{role="worker",shard="3"} 2048`,
		`modelnet_gateway_ingress_packets{role="worker",shard="3"} 5`,
		"# HELP modelnet_windows_total",
		"# TYPE modelnet_windows_total gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v\n%s", err, body)
	}
	if doc["role"] != "worker" || doc["shard"] != float64(3) {
		t.Fatalf("/metrics.json identity wrong: %v", doc)
	}
	if doc["modelnet_windows_total"] != float64(7) {
		t.Fatalf("/metrics.json windows = %v", doc["modelnet_windows_total"])
	}

	// The listener also serves the process's live profiles.
	for path, want := range map[string]string{
		"/debug/pprof/cmdline":           os.Args[0],
		"/debug/pprof/goroutine?debug=1": "goroutine profile:",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, body missing %q:\n%.200s", path, resp.StatusCode, want, body)
		}
	}
}

func TestProfileAggregation(t *testing.T) {
	var d DriveProfile
	d.Add(DriveProfile{BarrierWallNs: 10, ComputeWallNs: 20, SerialWallNs: 5, IdleWallNs: 2})
	d.Add(DriveProfile{BarrierWallNs: 1, ComputeWallNs: 2})
	if d.BarrierWallNs != 11 || d.ComputeWallNs != 22 || d.SerialWallNs != 5 || d.IdleWallNs != 2 {
		t.Fatalf("DriveProfile.Add: %+v", d)
	}

	s := ShardProfile{Shard: 2}
	s.Add(ShardProfile{Shard: 9, Windows: 10, ActiveWindows: 4, EventsFired: 100, RunWallNs: 7})
	if s.Shard != 2 {
		t.Fatalf("ShardProfile.Add overwrote the shard id: %+v", s)
	}
	if got := s.LookaheadUtilization(); got != 0.4 {
		t.Fatalf("lookahead utilization %v, want 0.4", got)
	}
	if (ShardProfile{}).LookaheadUtilization() != 0 {
		t.Fatal("empty profile utilization not 0")
	}

	rp := RunProfile{Mode: "parallel", Cores: 2, Drive: d, Shards: []ShardProfile{s}}
	path := t.TempDir() + "/profile.json"
	if err := rp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back RunProfile
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Mode != "parallel" || back.Cores != 2 || back.Drive != d || len(back.Shards) != 1 || back.Shards[0] != s {
		t.Fatalf("profile round-trip mismatch: %+v", back)
	}
}
