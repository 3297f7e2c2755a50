package experiments

import "testing"

func TestRouteTableAblation(t *testing.T) {
	rows, err := RunRouteTableAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	matrix, cache := rows[0], rows[1]
	if cache.Entries > matrix.Entries/10 {
		t.Errorf("cache holds %d routes", cache.Entries)
	}
}

func TestPayloadCachingAblation(t *testing.T) {
	rows, err := RunPayloadCachingAblation()
	if err != nil {
		t.Fatal(err)
	}
	full, cached := rows[0], rows[1]
	if cached.TunnelMB >= full.TunnelMB/2 {
		t.Errorf("payload caching moved %v MB vs full %v MB — little saving", cached.TunnelMB, full.TunnelMB)
	}
	// With tunnel NIC load removed, throughput should not fall (usually
	// rises: the tunnel bytes no longer compete for the NIC).
	if cached.Kpps < full.Kpps*0.95 {
		t.Errorf("payload caching slowed the system: %v vs %v Kpps", cached.Kpps, full.Kpps)
	}
}

func TestFailoverAblation(t *testing.T) {
	rows, err := RunFailoverAblation()
	if err != nil {
		t.Fatal(err)
	}
	perfect, dv := rows[0], rows[1]
	// Perfect routing: only the in-flight packets are lost; outage is on
	// the order of the path latency. The DV module exposes a real
	// convergence transient, orders of magnitude longer.
	if perfect.OutageMs > 200 {
		t.Errorf("perfect routing outage %v ms implausibly long", perfect.OutageMs)
	}
	if dv.OutageMs < perfect.OutageMs*3 {
		t.Errorf("DV outage %v ms not clearly longer than perfect %v ms", dv.OutageMs, perfect.OutageMs)
	}
	if dv.OutageMs > 15000 {
		t.Errorf("DV never reconverged: outage %v ms", dv.OutageMs)
	}
	if dv.Lost <= perfect.Lost {
		t.Errorf("DV lost %d ≤ perfect %d", dv.Lost, perfect.Lost)
	}
}
