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
// claim. The built binary must exit 130 within 30 s of the signal.
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

	cmd := exec.Command(bin, "-local-workers", "1", "-exp", "fig10", "-n", "2000000")
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
}
