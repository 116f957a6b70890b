package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"acic/internal/workload"
)

// phaseArgs selects one timed phase run in a child process.
type phaseArgs struct {
	name    string // "figures" or "prepare"
	store   string // artifact store directory
	n       int    // trace length
	seed    int64
	workers int
	trace   bool
	run     string // run id for spans
}

// phaseResult is a child phase's report, its last line of standard output.
type phaseResult struct {
	result
	StartNS  int64  `json:"start_unix_ns"` // when the phase process began work
	SpawnNS  int64  `json:"spawn_ns"`      // filled in by the parent: exec to StartNS
	WallNS   int64  `json:"wall_ns"`
	PeakKB   int64  `json:"peak_kb"`    // sampled right after the timed phase
	MaxRSSKB int64  `json:"max_rss_kb"` // filled in by the parent: the whole process, checks included
	Digest   string `json:"digest,omitempty"`
	Spans    []span `json:"spans,omitempty"`
}

func runPhase(p phaseArgs, out io.Writer) error {
	start := time.Now()
	var (
		pr  *phaseResult
		err error
	)
	switch p.name {
	case "figures":
		pr, err = phaseFigures(p)
	case "prepare":
		pr, err = phasePrepare(p)
	default:
		err = fmt.Errorf("unknown phase")
	}
	if err != nil {
		return err
	}
	pr.StartNS = start.UnixNano()
	line, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// paperApps lists the 15 paper profiles: ten datacenter apps, then five
// SPEC ones.
func paperApps() []string {
	var apps []string
	for _, p := range workload.All() {
		apps = append(apps, p.Name)
	}
	return apps
}
