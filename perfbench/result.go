package main

import (
	"fmt"
	"math"
	"slices"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one process's operation accounting and metrics. A phase
// process prints its result as JSON and the parent merges it into its own,
// so both sides share this one type.
type result struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"` // one line per failed operation, printed before the report
	Metrics   map[string]metric `json:"metrics,omitempty"`
}

// set records a metric; non-finite values (an empty ratio) report as 0.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// op accounts one attempted operation, failed when err is non-nil.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// fail accounts a failed check of an operation already attempted.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// merge folds another result's accounting and metrics into r.
func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Errors = append(r.Errors, o.Errors...)
	for name, m := range o.Metrics {
		r.set(name, m.Unit, m.Value)
	}
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) report() report {
	metrics := r.Metrics
	if metrics == nil {
		metrics = map[string]metric{}
	}
	return report{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics}
}

// median returns the middle of vs (the mean of the middle two when even).
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// seconds converts nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }
