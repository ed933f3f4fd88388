package bench

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads printed here match the ones a reader
// recomputes from the raw values. One value is its own quartiles; an
// empty slice gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// spread is the distance between the quartiles of xs as a share of
// their median: the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest reportable percentile for n
// samples: the highest candidate with at least ten samples beyond it.
// Below 100 samples no tail percentile is trustworthy and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Bound is how far a metric may worsen before a change counts as a
// regression: Rel is a share of the parent's median, Abs an absolute
// floor in the metric's unit. The allowance is the larger of the two,
// so a zero Bound means any worsening counts.
type Bound struct {
	Rel float64
	Abs float64
}

// Allowed returns the worsening the bound tolerates around base.
func (b Bound) Allowed(base float64) float64 {
	return math.Max(b.Rel*math.Abs(base), b.Abs)
}

// worsening returns how much worse change is than base, in the metric's
// unit (negative when it is better). better is "lower" or "higher".
func worsening(base, change float64, better string) float64 {
	if better == "higher" {
		return base - change
	}
	return change - base
}

// Verdicts of a comparison between a parent's runs and a change's runs.
const (
	VerdictBetter     = "better"
	VerdictSame       = "same"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Verdict compares a change's runs against its parent's runs of one
// metric on one workload:
//
//   - worse: the change's median is worse than the parent's by more
//     than the bound allows;
//   - unresolved: the parent's own quartile spread exceeds what the
//     bound allows, so "same" cannot be told from noise — unless every
//     change run beats every parent run, which is better;
//   - better: the medians differ by more than the parent's quartile
//     spread and the change wins at least nine tenths of the pairs
//     (runs paired by position; unequal counts need every change run to
//     beat every parent run);
//   - same: anything else.
func Verdict(base, change []float64, better string, b Bound) string {
	if len(base) == 0 || len(change) == 0 {
		return VerdictUnresolved
	}
	q1, bm, q3 := quartiles(base)
	cm := Median(change)
	allowed := b.Allowed(bm)
	worse := worsening(bm, cm, better)
	iqr := q3 - q1
	beatsAll := true
	for _, c := range change {
		for _, p := range base {
			if worsening(p, c, better) >= 0 {
				beatsAll = false
			}
		}
	}
	if iqr > allowed {
		if beatsAll {
			return VerdictBetter
		}
		return VerdictUnresolved
	}
	if worse > allowed {
		return VerdictWorse
	}
	wins := beatsAll
	if len(base) == len(change) {
		n := 0
		for i := range base {
			if worsening(base[i], change[i], better) < 0 {
				n++
			}
		}
		wins = float64(n) >= 0.9*float64(len(base))
	}
	if -worse > iqr && wins {
		return VerdictBetter
	}
	return VerdictSame
}
