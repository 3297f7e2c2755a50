package netstack

import (
	"testing"

	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Additional TCP edge-case coverage beyond the basic suite.

func TestTCPHalfClose(t *testing.T) {
	// Client sends a request and half-closes; server must still be able
	// to respond on its side of the connection (HTTP/1.0 pattern).
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	var serverGotFIN bool
	var clientGot int
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{
			OnData: func(c *Conn, n int, data []byte) {},
			OnClose: func(c *Conn, err error) {
				serverGotFIN = true
				// Respond after the peer's FIN.
				c.WriteCount(5000)
				c.Close()
			},
		}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{
		OnData: func(c *Conn, n int, data []byte) { clientGot += n },
	})
	c.WriteCount(100)
	c.Close()
	tn.sched.RunUntil(vtime.Time(30 * vtime.Second))
	if !serverGotFIN {
		t.Fatal("server never saw client FIN")
	}
	if clientGot != 5000 {
		t.Fatalf("client received %d after half-close, want 5000", clientGot)
	}
}

func TestTCPBidirectionalTransfer(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	var aGot, bGot int
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		c.WriteCount(200_000) // server pushes immediately too
		return Handlers{OnData: func(c *Conn, n int, data []byte) { bGot += n }}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{
		OnData: func(c *Conn, n int, data []byte) { aGot += n },
	})
	c.WriteCount(200_000)
	tn.sched.RunUntil(vtime.Time(60 * vtime.Second))
	if aGot != 200_000 || bGot != 200_000 {
		t.Fatalf("bidirectional: a=%d b=%d", aGot, bGot)
	}
}

func TestTCPWindowLimitsThroughput(t *testing.T) {
	// 100 Mb/s path, 100 ms RTT: an 8 KB window caps throughput at
	// ~8KB/0.1s = 655 kbit/s regardless of link speed.
	tn := newStarNet(t, 2, 100, 25, 0, emucore.IdealProfile())
	got := 0
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		// The receiver advertises a tiny window; the sender must respect it.
		c.SetWindow(8 << 10)
		return Handlers{OnData: func(c *Conn, n int, data []byte) { got += n }}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(10 << 20)
	tn.sched.RunUntil(vtime.Time(10 * vtime.Second))
	rate := float64(got*8) / 10
	// Window/RTT = 8KB*8/0.1s ≈ 655 kbit/s; allow up to 2x for the
	// receiver's advertised window racing upward.
	if rate > 1.4e6 {
		t.Errorf("rate %.0f bit/s exceeds window-limited bound", rate)
	}
	if rate < 0.3e6 {
		t.Errorf("rate %.0f bit/s too low for an 8KB window", rate)
	}
}

func TestTCPRTOBackoff(t *testing.T) {
	// Server VN exists but the path loses everything after the handshake:
	// simulate by aborting the server silently and watching client RTO
	// growth through retries.
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	tn.hosts[1].Listen(80, func(c *Conn) Handlers { return Handlers{} })
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	tn.sched.RunUntil(vtime.Time(1 * vtime.Second))
	if c.state != stateEstablished {
		t.Fatal("no handshake")
	}
	// Break the return path: remove the server's conn so data is never
	// ACKed (the server RSTs unknown segments — drop those by removing
	// the client's conn handler path instead; easiest is to blackhole:
	// make the server host drop segments by closing its listener and
	// conn map entry).
	for _, sc := range tn.hosts[1].conns {
		tn.hosts[1].removeConn(sc)
	}
	delete(tn.hosts[1].listeners, 80)
	// Suppress RSTs reaching the client: remove client's ability to be
	// found is not possible, so instead tolerate an ErrReset teardown.
	closed := false
	c.handlers.OnClose = func(c *Conn, err error) { closed = true }
	c.WriteCount(10_000)
	tn.sched.RunUntil(vtime.Time(120 * vtime.Second))
	if !closed {
		t.Fatal("connection never gave up")
	}
}

func TestTCPTimeoutGivesUp(t *testing.T) {
	// SYN to a VN whose host never responds (no host registered): the
	// dial must fail with a timeout after maxSynRetries backoffs.
	g := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	// Deregister host 1 by overwriting its delivery with a sink.
	g.emu.RegisterVN(1, func(*pipes.Packet) {})
	var err error
	closed := false
	g.hosts[0].Dial(Endpoint{1, 80}, Handlers{
		OnClose: func(c *Conn, e error) { closed = true; err = e },
	})
	g.sched.RunUntil(vtime.Time(600 * vtime.Second))
	if !closed || err != ErrTimeout {
		t.Fatalf("closed=%v err=%v, want timeout", closed, err)
	}
}

func TestListenerClose(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	l, err := tn.hosts[1].Listen(80, func(c *Conn) Handlers { return Handlers{} })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	refused := false
	tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{
		OnClose: func(c *Conn, err error) { refused = err == ErrReset },
	})
	tn.sched.RunUntil(vtime.Time(5 * vtime.Second))
	if !refused {
		t.Error("dial to closed listener not refused")
	}
}

func TestDuplicateListen(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	if _, err := tn.hosts[1].Listen(80, func(c *Conn) Handlers { return Handlers{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.hosts[1].Listen(80, func(c *Conn) Handlers { return Handlers{} }); err == nil {
		t.Error("duplicate listen accepted")
	}
}

func TestSmallWritesCoalesceInOrder(t *testing.T) {
	// Many tiny writes interleaved with msgs must arrive in exact order.
	tn := newStarNet(t, 2, 10, 2, 0.01, emucore.IdealProfile())
	var events []any
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{
			OnMsg: func(c *Conn, obj any) { events = append(events, obj) },
		}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	for i := 0; i < 100; i++ {
		c.WriteMsg(i, 37) // deliberately not MSS-aligned
	}
	c.Close()
	tn.sched.RunUntil(vtime.Time(60 * vtime.Second))
	if len(events) != 100 {
		t.Fatalf("got %d msgs", len(events))
	}
	for i, e := range events {
		if e.(int) != i {
			t.Fatalf("order broken at %d: %v", i, e)
		}
	}
}

func TestConnStatsAccounting(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	var srv *Conn
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		srv = c
		return Handlers{}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(50_000)
	c.Close()
	tn.sched.RunUntil(vtime.Time(30 * vtime.Second))
	if c.BytesSent != 50_000 {
		t.Errorf("BytesSent = %d", c.BytesSent)
	}
	if srv == nil || srv.BytesRcvd != 50_000 {
		t.Errorf("server BytesRcvd = %v", srv)
	}
	if c.Established == 0 {
		t.Error("Established time not recorded")
	}
}
