package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acic/cmd/internal/cliutil"
)

// TestRunExitCodes drives the command through run, as main does: every
// outcome is an exit code returned to main, never an os.Exit from inside,
// so a failing run still stops and flushes its CPU profile. An unknown
// experiment and an unusable result cache fail with exit 1 and leave a
// profile that decompresses to a non-empty protobuf (os.Exit from inside
// left it at 0 bytes); -list and -h succeed, a bad flag exits 2.
func TestRunExitCodes(t *testing.T) {
	t.Setenv("ACIC_ARTIFACT_DIR", "")
	t.Setenv("ACIC_CACHE_DIR", "")
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		args    []string
		code    int
		stdout  string // substring of stdout
		stderr  string // substring of stderr
		profile bool   // pass -cpuprofile and check it after exit
	}{
		{[]string{"-list"}, 0, "fig10", "", false},
		{[]string{"-h"}, 0, "", "-cpuprofile", false},
		{[]string{"-no-such-flag"}, 2, "", "flag provided but not defined", false},
		{[]string{"-exp", "nosuch"}, 1, "", "nosuch", true},
		{[]string{"-exp", "table3", "-n", "2000", "-cache-dir", filepath.Join(notADir, "cache")}, 1, "", "acic-bench:", true},
	} {
		args := tc.args
		prof := filepath.Join(dir, fmt.Sprintf("cpu%d.prof", i))
		if tc.profile {
			args = append([]string{"-cpuprofile", prof}, args...)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != tc.code ||
			!strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) = %d, want %d\n--- stdout\n%s--- stderr\n%s", args, code, tc.code, stdout.String(), stderr.String())
		}
		if !tc.profile {
			continue
		}
		f, err := os.Open(prof)
		if err != nil {
			t.Errorf("run(%q): %v", args, err)
			continue
		}
		zr, err := gzip.NewReader(f)
		var n int64
		if err == nil {
			n, err = io.Copy(io.Discard, zr)
		}
		f.Close()
		if err != nil || n == 0 {
			t.Errorf("run(%q): CPU profile unreadable after exit (%d bytes decompressed, %v)", args, n, err)
		}
	}
}

// TestSampleValidateRemovesScratchStore: -sample-validate without an
// artifact directory prepares into a scratch store under TMPDIR, and
// every exit must remove it: a passing run (exit 0), a run past
// -sample-err-pct (exit 1) and a run interrupted by SIGINT (exit 130).
// Each run gets its own TMPDIR, which must be empty afterwards.
func TestSampleValidateRemovesScratchStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "acic-bench")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	start := func(tmp string, args ...string) (*exec.Cmd, *bufio.Scanner) {
		cmd := exec.Command(bin, append([]string{"-sample-validate", "-apps", "media-streaming"}, args...)...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp, "ACIC_ARTIFACT_DIR=", "ACIC_CACHE_DIR=")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, bufio.NewScanner(stderr)
	}
	exitCode := func(err error) int {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	}
	assertEmpty := func(name, tmp string) {
		t.Helper()
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Errorf("%s: TMPDIR holds %d entries after exit (%v), want none", name, len(left), err)
		}
	}

	for _, run := range []struct {
		name   string
		errPct string
		want   int
	}{{"pass", "-1", 0}, {"past the error bound", "0", 1}} {
		tmp := t.TempDir()
		cmd, stderr := start(tmp, "-n", "4000", "-sample-err-pct", run.errPct)
		for stderr.Scan() {
		}
		if got := exitCode(cmd.Wait()); got != run.want {
			t.Errorf("%s: exit %d, want %d", run.name, got, run.want)
		}
		assertEmpty(run.name, tmp)
	}

	// Interrupt once the first cell has completed: prepare is done and
	// the grid is running, so the scratch store holds the workload.
	tmp := t.TempDir()
	cmd, stderr := start(tmp, "-n", "2000000", "-progress")
	done := make(chan error, 1)
	running := make(chan struct{})
	go func() {
		for stderr.Scan() {
			if strings.HasPrefix(stderr.Text(), "[1/") {
				close(running)
				break
			}
		}
		for stderr.Scan() { // drain, so the child never blocks on stderr
		}
		done <- cmd.Wait()
	}()
	select {
	case <-running:
	case err := <-done:
		t.Fatalf("exited before its first cell: %v", err)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("no cell completed within 60 s")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if got := exitCode(err); got != cliutil.ExitInterrupted {
			t.Errorf("exit after SIGINT: %d, want %d", got, cliutil.ExitInterrupted)
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("still running 60 s after SIGINT")
	}
	assertEmpty("interrupted", tmp)
}
