package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqrPct is the distance between the first and third quartile of xs as
// a percentage of their median: the spread figure every noise statement
// in this benchmark uses.
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m * 100
}

// percentileMs returns the q-quantile of a latency sample in
// milliseconds, by nearest rank on the sorted sample (no interpolation:
// a reported latency is one that a request actually saw).
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}

// sortedDurations returns a sorted copy of ds.
func sortedDurations(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

// dueTime is when request k of an open-loop schedule at rate req/s is
// due. Latency is counted from here, not from the moment the generator
// got round to sending, so a stall charges every request it delayed.
func dueTime(start time.Time, k int, rate float64) time.Time {
	return start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
}

// subWindow is one controller sample at a saturate sub-window boundary.
type subWindow struct {
	at      time.Time
	correct int64
	cpu     time.Duration
}

// subWindowRates turns n+1 boundary samples into n per-sub-window
// figures: correct replies per second, and process CPU microseconds
// per correct reply. A sub-window without a correct reply yields
// zeroes (and the run fails elsewhere).
func subWindowRates(b []subWindow) (rps, cpuUs []float64) {
	for i := 1; i < len(b); i++ {
		n := float64(b[i].correct - b[i-1].correct)
		dt := b[i].at.Sub(b[i-1].at).Seconds()
		if n <= 0 || dt <= 0 {
			rps = append(rps, 0)
			cpuUs = append(cpuUs, 0)
			continue
		}
		rps = append(rps, n/dt)
		cpuUs = append(cpuUs, float64((b[i].cpu-b[i-1].cpu).Nanoseconds())/1e3/n)
	}
	return rps, cpuUs
}
