package vtime

// Timer is a cancellable one-shot deadline, analogous to time.Timer but in
// virtual time.
type Timer struct {
	s      *Scheduler
	id     EventID
	armed  bool
	Expiry Time
	// Tag is the owner claim the timer arms its events with (see
	// Scheduler.AtTagged); NoTag from NewTimer, the owning VN from
	// NewTaggedTimer.
	Tag int32

	fn   func() // the current arming's callback
	fire func() // t.expire, bound once so arming allocates nothing
}

// NewTimer returns an unarmed timer bound to s.
func NewTimer(s *Scheduler) *Timer {
	return NewTaggedTimer(s, NoTag)
}

// NewTaggedTimer returns an unarmed timer whose events claim owner vn: its
// callbacks must inject traffic only at that VN.
func NewTaggedTimer(s *Scheduler, vn int32) *Timer {
	t := &Timer{s: s, Tag: vn}
	t.fire = t.expire
	return t
}

// Reset (re)arms the timer to fire fn after d, canceling any prior arming.
// Arming allocates nothing, so a caller that re-arms per packet should pass
// a func value it built once rather than a fresh closure.
func (t *Timer) Reset(d Duration, fn func()) {
	t.StopTimer()
	t.Expiry = t.s.Now().Add(d)
	t.armed = true
	t.fn = fn
	t.id = t.s.AtTagged(t.Expiry, t.Tag, t.fire)
}

func (t *Timer) expire() {
	t.armed = false
	t.fn()
}

// StopTimer cancels the timer if armed. Reports whether it was armed.
func (t *Timer) StopTimer() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	return t.s.Cancel(t.id)
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

// Ticker calls fn every period until stopped. The first call happens one
// period after Start.
type Ticker struct {
	s       *Scheduler
	period  Duration
	fn      func()
	id      EventID
	running bool
	// Tag is the owner claim (see Timer.Tag); NoTag from NewTicker.
	Tag int32

	fire func() // tk.tick, bound once so each period allocates nothing
}

// NewTicker returns a stopped ticker; call Start to begin.
func NewTicker(s *Scheduler, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("vtime: ticker period must be positive")
	}
	tk := &Ticker{s: s, period: period, fn: fn, Tag: NoTag}
	tk.fire = tk.tick
	return tk
}

// NewTaggedTicker is NewTicker with an owner claim: fn must inject traffic
// only at VN vn.
func NewTaggedTicker(s *Scheduler, vn int32, period Duration, fn func()) *Ticker {
	tk := NewTicker(s, period, fn)
	tk.Tag = vn
	return tk
}

// Start begins ticking. Starting a running ticker is a no-op.
func (tk *Ticker) Start() {
	if tk.running {
		return
	}
	tk.running = true
	tk.schedule()
}

func (tk *Ticker) schedule() {
	tk.id = tk.s.AtTagged(tk.s.Now().Add(tk.period), tk.Tag, tk.fire)
}

func (tk *Ticker) tick() {
	if !tk.running {
		return
	}
	tk.fn()
	if tk.running {
		tk.schedule()
	}
}

// Stop halts the ticker. The callback will not fire again.
func (tk *Ticker) Stop() {
	if !tk.running {
		return
	}
	tk.running = false
	tk.s.Cancel(tk.id)
}

// Running reports whether the ticker is active.
func (tk *Ticker) Running() bool { return tk.running }
