package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acic/cmd/internal/cliutil"
)

// TestInterruptExits130: SIGINT during a self-contained distributed run
// stops the in-process workers claiming, so it must also close the
// coordinator; otherwise the suite waits forever on batches nobody will
// claim. The built binary must exit 130 within 30 s of the signal, and
// the exit must still remove its scratch store from TMPDIR.
func TestInterruptExits130(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "acic-coord")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	tmp := t.TempDir()
	cmd := exec.Command(bin, "-local-workers", "1", "-exp", "fig10", "-n", "2000000")
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp, "ACIC_ARTIFACT_DIR=")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "acic-coord: serving ") {
				close(started)
				break
			}
		}
		for sc.Scan() { // drain, so the child never blocks on stderr
		}
		done <- cmd.Wait()
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("no startup line within 30 s")
	}
	// Let the local worker claim its first batch before interrupting.
	time.Sleep(time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != cliutil.ExitInterrupted {
			t.Fatalf("exit after SIGINT: %v, want code %d", err, cliutil.ExitInterrupted)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("still running 30 s after SIGINT")
	}
	left, err := filepath.Glob(filepath.Join(tmp, "acic-coord-store-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("exit 130 left %d scratch stores behind: %v", len(left), left)
	}
}

// TestArtifactDirRefused: the coordinator's suite uses the shared store
// (-store-dir or -store-url), so -artifact-dir and ACIC_ARTIFACT_DIR are
// refused with an error naming those two flags, before anything runs.
func TestArtifactDirRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  string
		args []string
	}{
		{"flag", "", []string{"-artifact-dir", t.TempDir(), "-exp", "table1"}},
		{"env", t.TempDir(), []string{"-exp", "table1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("ACIC_ARTIFACT_DIR", tc.env)
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, "-artifact-dir") || !strings.Contains(msg, "-store-dir") || !strings.Contains(msg, "-store-url") {
				t.Errorf("stderr %q does not name -artifact-dir, -store-dir and -store-url", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want nothing rendered", stdout.String())
			}
		})
	}
}
