package pipes

import (
	"math"

	"modelnet/internal/vtime"
)

// REDParams configures Random Early Detection (Floyd & Jacobson 1993) for a
// pipe's queue. Each pipe is FIFO by default; RED is the alternative
// queueing discipline the paper mentions in §2.2.
type REDParams struct {
	MinThresh float64 // average queue length below which no packet drops
	MaxThresh float64 // average queue length above which all packets drop
	MaxP      float64 // drop probability at MaxThresh
	Weight    float64 // EWMA weight for the average queue size (typ. 0.002)
}

// redState is the per-pipe RED bookkeeping.
type redState struct {
	avg       float64    // EWMA of queue length
	count     int        // packets since last drop while avg in [min,max)
	idleSince vtime.Time // when the queue went empty, for idle decay
	idle      bool
}

func (r *redState) init() {
	r.avg = 0
	r.count = -1
	r.idle = true
	r.idleSince = 0
}

// markIdle records that the queue drained empty at time now, so the average
// decays over the idle period before the next arrival.
func (r *redState) markIdle(now vtime.Time) {
	if !r.idle {
		r.idle = true
		r.idleSince = now
	}
}

// shouldDrop runs the gentle-less classic RED algorithm on one arrival.
// roll supplies uniform draws (the pipe's counted generator).
func (r *redState) shouldDrop(p *REDParams, qlen int, now vtime.Time, roll func() float64) bool {
	w := p.Weight
	if w <= 0 {
		w = 0.002
	}
	if qlen == 0 {
		if !r.idle {
			r.idle = true
			r.idleSince = now
		}
		// Decay the average during idle periods: pretend ~1 small packet
		// per 100 µs could have been transmitted.
		idleTicks := float64(now.Sub(r.idleSince)) / float64(100*vtime.Microsecond)
		if idleTicks > 0 {
			r.avg *= math.Pow(1-w, idleTicks)
		}
		r.idleSince = now
	} else {
		r.idle = false
		r.avg = (1-w)*r.avg + w*float64(qlen)
	}

	switch {
	case r.avg < p.MinThresh:
		r.count = -1
		return false
	case r.avg >= p.MaxThresh:
		r.count = 0
		return true
	default:
		r.count++
		pb := p.MaxP * (r.avg - p.MinThresh) / (p.MaxThresh - p.MinThresh)
		pa := pb / math.Max(1-float64(r.count)*pb, 1e-9)
		if roll() < pa {
			r.count = 0
			return true
		}
		return false
	}
}
