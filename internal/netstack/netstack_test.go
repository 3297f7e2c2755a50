package netstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// testNet is a fixture: n hosts on a star topology.
type testNet struct {
	sched *vtime.Scheduler
	emu   *emucore.Emulator
	hosts []*Host
}

// The emulator is its own delivery registrar (emucore.DeliverFunc is an
// alias); no adapter stands between a host and it.
var _ Registrar = (*emucore.Emulator)(nil)

func newStarNet(t *testing.T, n int, mbps, ms, loss float64, prof emucore.Profile) *testNet {
	t.Helper()
	g := topology.Star(n, topology.LinkAttrs{
		BandwidthBps: mbps * 1e6, LatencySec: ms * 1e-3, LossRate: loss, QueuePkts: 50,
	})
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNet{sched: sched, emu: emu}
	for i := 0; i < n; i++ {
		tn.hosts = append(tn.hosts, NewHost(pipes.VN(i), sched, emu, emu))
	}
	return tn
}

func TestUDPRoundTrip(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	var gotAt vtime.Time
	var gotObj any
	_, err := tn.hosts[1].OpenUDP(7, func(from Endpoint, dg *Datagram) {
		gotAt = tn.sched.Now()
		gotObj = dg.Obj
		if from.VN != 0 {
			t.Errorf("from = %v", from)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := tn.hosts[0].OpenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SendTo(Endpoint{1, 7}, 100, "hello")
	tn.sched.Run()
	if gotObj != "hello" {
		t.Fatalf("obj = %v", gotObj)
	}
	// Two 10 Mb/s, 5 ms hops; 128 B on wire (100+28): tx = 102.4 µs per hop.
	want := vtime.Time(2 * (5*vtime.Millisecond + 102400))
	if gotAt != want {
		t.Errorf("arrival %v, want %v", gotAt, want)
	}
}

func TestUDPUnboundPortSilentlyDropped(t *testing.T) {
	tn := newStarNet(t, 2, 10, 1, 0, emucore.IdealProfile())
	s, _ := tn.hosts[0].OpenUDP(0, nil)
	s.SendTo(Endpoint{1, 99}, 50, nil)
	tn.sched.Run() // must not panic or leak events
	if tn.hosts[1].PktsIn != 1 {
		t.Errorf("packet not delivered to host")
	}
}

func TestTCPConnectAndClose(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	var serverConn *Conn
	var serverConnected, clientConnected bool
	var serverClosed, clientClosed bool
	_, err := tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		serverConn = c
		return Handlers{
			OnConnect: func(*Conn) { serverConnected = true },
			OnClose: func(c *Conn, err error) {
				serverClosed = true
				if err != nil {
					t.Errorf("server close err: %v", err)
				}
				c.Close() // close our side in response
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{
		OnConnect: func(c *Conn) {
			clientConnected = true
			c.Close()
		},
		OnClose: func(*Conn, error) { clientClosed = true },
	})
	tn.sched.Run()
	if !clientConnected || !serverConnected {
		t.Fatalf("connected: client=%v server=%v", clientConnected, serverConnected)
	}
	if !serverClosed || !clientClosed {
		t.Fatalf("closed: client=%v server=%v", clientClosed, serverClosed)
	}
	if len(tn.hosts[0].conns) != 0 || len(tn.hosts[1].conns) != 0 {
		t.Errorf("conns leaked: %d/%d", len(tn.hosts[0].conns), len(tn.hosts[1].conns))
	}
	_ = cl
	_ = serverConn
}

func TestTCPDataIntegrity(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	payload := make([]byte, 10000)
	rng := rand.New(rand.NewSource(7))
	rng.Read(payload)
	var rcvd []byte
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{
			OnData: func(c *Conn, n int, data []byte) {
				if data == nil {
					t.Fatal("real bytes arrived as synthetic")
				}
				rcvd = append(rcvd, data...)
			},
		}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.Write(payload)
	c.Close()
	tn.sched.Run()
	if !bytes.Equal(rcvd, payload) {
		t.Fatalf("received %d bytes, corrupt or short (want %d)", len(rcvd), len(payload))
	}
}

func TestTCPBulkThroughput(t *testing.T) {
	// 10 Mb/s bottleneck, 10 ms RTT: a long transfer should reach most of
	// link rate (data efficiency 1460/1500 ≈ 0.973 => ~9.7 Mb/s cap).
	tn := newStarNet(t, 2, 10, 2.5, 0, emucore.IdealProfile())
	var done vtime.Time
	const total = 2_000_000 // 2 MB
	got := 0
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{OnData: func(c *Conn, n int, data []byte) {
			got += n
			if got >= total {
				done = tn.sched.Now()
			}
		}}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(total)
	c.Close()
	tn.sched.RunUntil(vtime.Time(60 * vtime.Second))
	if got < total {
		t.Fatalf("only %d of %d bytes arrived", got, total)
	}
	thr := float64(total*8) / done.Seconds() / 1e6
	if thr < 7.5 || thr > 10 {
		t.Errorf("throughput %.2f Mb/s, want ≈9.7", thr)
	}
	if c.Retransmits > 5 {
		t.Errorf("lossless path had %d retransmits", c.Retransmits)
	}
}

func TestTCPSlowStartGrowth(t *testing.T) {
	// On an uncongested fat path the congestion window should roughly
	// double each RTT during slow start.
	tn := newStarNet(t, 2, 1000, 10, 0, emucore.IdealProfile())
	tn.hosts[1].Listen(80, func(c *Conn) Handlers { return Handlers{} })
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.window = 1 << 20
	c.WriteCount(5 << 20)
	var samples []int
	for i := 1; i <= 4; i++ {
		i := i
		// RTT ≈ 40 ms (two 10 ms hops each way); sample at RTT multiples.
		tn.sched.At(vtime.Time(i)*vtime.Time(41*vtime.Millisecond), func() {
			samples = append(samples, c.Cwnd())
		})
	}
	tn.sched.RunUntil(vtime.Time(200 * vtime.Millisecond))
	// With delayed ACKs (one per two segments) slow start grows ≈1.5× per
	// RTT rather than the textbook 2×.
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1]*5/4 {
			t.Errorf("slow start not growing: cwnd samples %v", samples)
			break
		}
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0.02, emucore.IdealProfile())
	const total = 500_000
	got := 0
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{OnData: func(c *Conn, n int, data []byte) { got += n }}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(total)
	c.Close()
	tn.sched.RunUntil(vtime.Time(120 * vtime.Second))
	if got != total {
		t.Fatalf("delivered %d of %d under 2%% loss", got, total)
	}
	if c.Retransmits == 0 {
		t.Error("no retransmits under loss")
	}
	if c.FastRecoveries == 0 {
		t.Error("no fast recoveries under loss — dupack path dead?")
	}
}

func TestTCPFairnessTwoFlows(t *testing.T) {
	// Two flows share one 10 Mb/s bottleneck to the same receiver: each
	// should get roughly half.
	tn := newStarNet(t, 3, 10, 2, 0, emucore.IdealProfile())
	rcv := map[int]int{}
	tn.hosts[2].Listen(80, func(c *Conn) Handlers {
		id := int(c.Remote.VN)
		return Handlers{OnData: func(c *Conn, n int, data []byte) { rcv[id] += n }}
	})
	for i := 0; i < 2; i++ {
		c := tn.hosts[i].Dial(Endpoint{2, 80}, Handlers{})
		c.WriteCount(100 << 20) // effectively unbounded
	}
	tn.sched.RunUntil(vtime.Time(30 * vtime.Second))
	a, b := float64(rcv[0]), float64(rcv[1])
	if a == 0 || b == 0 {
		t.Fatalf("starvation: %v", rcv)
	}
	ratio := a / b
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 2.5 {
		t.Errorf("unfair split %.0f vs %.0f (ratio %.2f)", a, b, ratio)
	}
}

func TestTCPDelayedAcks(t *testing.T) {
	// Paper §3.2 accounting: 1 ACK per two 1500-byte data packets. Count
	// receiver->sender packets against data packets.
	tn := newStarNet(t, 2, 100, 1, 0, emucore.IdealProfile())
	tn.hosts[1].Listen(80, func(c *Conn) Handlers { return Handlers{} })
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(1_000_000)
	tn.sched.RunUntil(vtime.Time(5 * vtime.Second))
	dataPkts := tn.hosts[0].PktsOut
	acks := tn.hosts[1].PktsOut
	if dataPkts == 0 || acks == 0 {
		t.Fatal("no traffic")
	}
	ratio := float64(dataPkts) / float64(acks)
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("data/ack ratio %.2f, want ≈2", ratio)
	}
}

func TestTCPMsgDelivery(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0.01, emucore.IdealProfile())
	var got []any
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{OnMsg: func(c *Conn, obj any) { got = append(got, obj) }}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	for i := 0; i < 20; i++ {
		c.WriteMsg(i, 3000) // spans multiple segments
	}
	c.Close()
	tn.sched.RunUntil(vtime.Time(60 * vtime.Second))
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20 messages (loss must not lose or dup msgs)", len(got))
	}
	for i, o := range got {
		if o.(int) != i {
			t.Fatalf("message order broken at %d: %v", i, got)
		}
	}
}

func TestTCPConnectRefused(t *testing.T) {
	tn := newStarNet(t, 2, 10, 1, 0, emucore.IdealProfile())
	var closeErr error
	closed := false
	tn.hosts[0].Dial(Endpoint{1, 81}, Handlers{
		OnClose: func(c *Conn, err error) { closed = true; closeErr = err },
	})
	tn.sched.Run()
	if !closed {
		t.Fatal("dial to closed port never failed")
	}
	if closeErr != ErrReset {
		t.Errorf("err = %v, want ErrReset", closeErr)
	}
}

func TestTCPAbort(t *testing.T) {
	tn := newStarNet(t, 2, 10, 1, 0, emucore.IdealProfile())
	var serverErr error
	srvClosed := false
	tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		return Handlers{OnClose: func(c *Conn, err error) { srvClosed = true; serverErr = err }}
	})
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{
		OnConnect: func(c *Conn) {
			c.WriteCount(1000)
			tn.sched.After(50*vtime.Millisecond, c.Abort)
		},
	})
	tn.sched.Run()
	if !srvClosed || serverErr != ErrReset {
		t.Errorf("server close: %v err %v, want reset", srvClosed, serverErr)
	}
	_ = c
}

func TestRPCBasic(t *testing.T) {
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	srv, err := NewRPCNode(tn.hosts[1], 9, func(from Endpoint, body any, size int) (any, int) {
		return body.(int) * 2, 64
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRPCNode(tn.hosts[0], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got any
	cli.Call(srv.Addr(), 21, 64, CallOpts{}, func(resp any, err error) {
		if err != nil {
			t.Errorf("rpc err: %v", err)
		}
		got = resp
	})
	tn.sched.Run()
	if got != 42 {
		t.Fatalf("resp = %v", got)
	}
}

func TestRPCRetriesThroughLoss(t *testing.T) {
	tn := newStarNet(t, 2, 10, 2, 0.3, emucore.IdealProfile())
	srv, _ := NewRPCNode(tn.hosts[1], 9, func(from Endpoint, body any, size int) (any, int) {
		return "ok", 32
	})
	cli, _ := NewRPCNode(tn.hosts[0], 0, nil)
	okCount := 0
	for i := 0; i < 50; i++ {
		cli.Call(srv.Addr(), i, 64, CallOpts{Retries: 8, Timeout: 100 * vtime.Millisecond},
			func(resp any, err error) {
				if err == nil {
					okCount++
				}
			})
	}
	tn.sched.Run()
	if okCount < 45 {
		t.Errorf("only %d/50 RPCs survived 30%% loss with retries", okCount)
	}
}

func TestRPCTimeoutOnDeadPeer(t *testing.T) {
	tn := newStarNet(t, 2, 10, 2, 0, emucore.IdealProfile())
	cli, _ := NewRPCNode(tn.hosts[0], 0, nil)
	var gotErr error
	fired := 0
	cli.Call(Endpoint{1, 99}, "x", 64, CallOpts{Retries: 1, Timeout: 50 * vtime.Millisecond},
		func(resp any, err error) { gotErr = err; fired++ })
	tn.sched.Run()
	if fired != 1 || gotErr != ErrRPCTimeout {
		t.Errorf("fired=%d err=%v", fired, gotErr)
	}
	if cli.Timeouts != 1 {
		t.Errorf("timeouts = %d", cli.Timeouts)
	}
}

// Property: TCP delivers exactly the bytes written, in order, for random
// payload sizes and loss rates — the core reliability invariant.
func TestTCPReliabilityProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, lossRaw uint8) bool {
		size := int(sizeRaw)%40000 + 1
		loss := float64(lossRaw%10) / 100.0 // 0-9%
		g := topology.Star(2, topology.LinkAttrs{
			BandwidthBps: 10e6, LatencySec: 0.003, LossRate: loss, QueuePkts: 30,
		})
		b, err := bind.Bind(g, bind.Options{})
		if err != nil {
			return false
		}
		sched := vtime.NewScheduler()
		emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), seed)
		if err != nil {
			return false
		}
		h0 := NewHost(0, sched, emu, emu)
		h1 := NewHost(1, sched, emu, emu)
		payload := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(payload)
		var rcvd []byte
		closed := false
		h1.Listen(80, func(c *Conn) Handlers {
			return Handlers{
				OnData:  func(c *Conn, n int, data []byte) { rcvd = append(rcvd, data...) },
				OnClose: func(c *Conn, err error) { closed = true },
			}
		})
		c := h0.Dial(Endpoint{1, 80}, Handlers{})
		c.Write(payload)
		c.Close()
		sched.RunUntil(vtime.Time(300 * vtime.Second))
		return closed && bytes.Equal(rcvd, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
