package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile of xs by linear interpolation
// between closest ranks; +Inf entries (failed requests) sort last. It
// returns NaN for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedP99 splits lat (in arrival order) into up to five windows of
// at least 500 samples and returns the median of the windows' p99s.
// The host's CPU can stall for milliseconds at a time; a stall that
// lands in one window moves that window's p99, not the median.
func windowedP99(lat []float64) float64 {
	k := max(1, min(5, len(lat)/500))
	var p99s []float64
	for i := 0; i < k; i++ {
		p99s = append(p99s, quantile(lat[i*len(lat)/k:(i+1)*len(lat)/k], 0.99))
	}
	return median(p99s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rung is one rate the SLO ladder tried.
type rung struct {
	rate    float64
	n       int     // answers attempted
	p99     float64 // answer p99 in seconds; +Inf when failures exceed 1%
	pass    bool
	backlog bool
}

// judge decides whether a rung meets the bound: lat holds each answer's
// latency in seconds in due order, +Inf for a failed or refused request,
// and the rung's p99 is their windowed p99.
// The backlog grows when the rung was aborted, or when the last quarter
// of answers waited clearly longer than the first.
func judge(rate float64, lat []float64, aborted bool, slo float64) rung {
	r := rung{rate: rate, n: len(lat), p99: windowedP99(lat)}
	if len(lat) == 0 {
		r.p99 = math.Inf(1)
	}
	q := len(lat) / 4
	if aborted {
		r.backlog = true
	} else if q >= 10 {
		first, last := median(lat[:q]), median(lat[len(lat)-q:])
		r.backlog = last > 2*first && last > slo/2
	}
	r.pass = !r.backlog && r.p99 <= slo
	return r
}

// nextRate picks the ladder's next rate from the rungs tried so far:
// ×step up while everything passes, ÷step down while everything fails,
// and the geometric midpoint of the tightest pass/fail bracket after.
func nextRate(rungs []rung, step float64) float64 {
	lo, hi := bracket(rungs)
	switch {
	case hi == 0:
		return lo * step
	case lo == 0:
		return hi / step
	}
	return math.Sqrt(lo * hi)
}

// bracket returns the highest passing rate below the lowest failing
// rate above it (0 if none) and that failing rate (0 if none).
func bracket(rungs []rung) (lo, hi float64) {
	for _, r := range rungs {
		if !r.pass && (hi == 0 || r.rate < hi) {
			hi = r.rate
		}
	}
	for _, r := range rungs {
		if r.pass && (hi == 0 || r.rate < hi) && r.rate > lo {
			lo = r.rate
		}
	}
	return lo, hi
}

// sloQPS is the highest rate at which the answer p99 meets the bound.
// The ladder's rungs are 25% apart and each rung's p99 is noisy, so it
// fits log p99 as a non-decreasing function of rate over every rung
// (weighted by answer count; a rung with a growing backlog counts as
// +Inf) and interpolates the fit log-linearly where it crosses slo.
// When every rung meets the bound it is the highest rate tried; when
// none does, the lowest rate scaled down by slo/p99 (at most 100×).
func sloQPS(rungs []rung, slo float64) float64 {
	if len(rungs) == 0 {
		return math.NaN()
	}
	pts := append([]rung(nil), rungs...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].rate < pts[j].rate })
	ys := make([]float64, len(pts))
	ws := make([]float64, len(pts))
	for i, r := range pts {
		p := r.p99
		if r.backlog || math.IsInf(p, 1) || p > 1e3 {
			p = 1e3 // beyond any bound; keeps the fit finite
		}
		ys[i], ws[i] = math.Log(math.Max(p, 1e-9)), math.Max(float64(r.n), 1)
	}
	fit := isotonic(ys, ws)
	ls := math.Log(slo)
	for i := range pts {
		if fit[i] <= ls {
			continue
		}
		if i == 0 {
			return pts[0].rate * math.Max(0.01, math.Exp(ls-fit[0]))
		}
		f := (ls - fit[i-1]) / (fit[i] - fit[i-1])
		return pts[i-1].rate * math.Pow(pts[i].rate/pts[i-1].rate, f)
	}
	return pts[len(pts)-1].rate
}

// isotonic returns the weighted least-squares non-decreasing fit to ys
// (pool adjacent violators).
func isotonic(ys, ws []float64) []float64 {
	type block struct {
		mean, w float64
		n       int
	}
	var bs []block
	for i := range ys {
		bs = append(bs, block{ys[i], ws[i], 1})
		for len(bs) > 1 && bs[len(bs)-2].mean > bs[len(bs)-1].mean {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			w := a.w + b.w
			bs = append(bs[:len(bs)-2], block{(a.mean*a.w + b.mean*b.w) / w, w, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range bs {
		for j := 0; j < b.n; j++ {
			out = append(out, b.mean)
		}
	}
	return out
}
