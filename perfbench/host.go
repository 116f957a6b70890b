package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every report: the numbers only compare
// between runs on like hosts.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	StoreFS    string `json:"store_fs"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine during the run: on a shared host the timings rise with it.
	StealPct float64 `json:"steal_pct"`
	Label    string  `json:"label,omitempty"`
}

// describeHost reports the host; before is cpuTicks() at the run's start.
func describeHost(cfg config, before [2]int64) hostInfo {
	after := cpuTicks()
	h := hostInfo{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers,
		GoVersion: runtime.Version(), Kernel: kernel(), StoreFS: fsType(cfg.work),
	}
	if total := after[0] - before[0]; total > 0 {
		h.StealPct = 100 * float64(after[1]-before[1]) / float64(total)
	}
	if h.GOMAXPROCS == 1 {
		h.Label = "single-core"
	}
	return h
}

// cpuTicks returns the machine's total and steal CPU ticks from the
// aggregate line of /proc/stat (zeros where it is unreadable).
func cpuTicks() [2]int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]int64{}
	}
	var ticks [2]int64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			ticks[0] += v
		}
		if i == 7 {
			ticks[1] = v
		}
	}
	return ticks
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	str := func(cs [65]int8) string {
		b := make([]byte, 0, len(cs))
		for _, c := range cs {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		return string(b)
	}
	return str(u.Sysname) + " " + str(u.Release) + " " + str(u.Machine)
}

// fsType names the filesystem holding dir (the artifact stores live
// there, so disk-bound phases depend on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSKB returns the peak resident set of process pid (0 = self) in
// KiB: VmHWM from /proc, else this process's rusage maxrss.
func peakRSSKB(pid int) int64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	if pid > 0 {
		return 0
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// runChild runs one timed phase in a fresh process of this binary, so the
// parent's set-up allocations stay out of the phase's peak memory, and
// returns the phase's result (its last stdout line). Starting the process
// is part of the phase's set-up: SpawnNS times it, from exec until the
// phase began work.
func (b *bench) runChild(p phaseArgs) (*phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-phase", p.name, "-store", p.store, "-n", strconv.Itoa(p.n),
		"-seed", strconv.FormatInt(p.seed, 10), "-run-id", b.tr.run, "-phase-workers", strconv.Itoa(p.workers)}
	if p.trace {
		args = append(args, "-phase-trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", b.cfg.workers))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	spawned := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("phase %s: %w", p.name, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var pr phaseResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("phase %s: bad result line: %w", p.name, err)
	}
	pr.SpawnNS = pr.StartNS - spawned.UnixNano()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		pr.MaxRSSKB = ru.Maxrss
	}
	return &pr, nil
}

// childAttr makes the kernel kill a child process if the benchmark dies
// first, so no phase process or daemon outlives the run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
