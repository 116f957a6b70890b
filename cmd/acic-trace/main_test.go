package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes drives the command through run, as main does: every
// outcome is an exit code returned to main, never an os.Exit from inside.
// A warm into a fresh store and an inspect of it succeed; a warm without
// a store, an inspect of nothing, an unknown workload and a bad flag fail
// with their codes and a message on stderr.
func TestRunExitCodes(t *testing.T) {
	t.Setenv("ACIC_ARTIFACT_DIR", "")
	store := t.TempDir()
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string // substring of stdout
		stderr string // substring of stderr
	}{
		{[]string{"-list"}, 0, "media-streaming", ""},
		{[]string{"warm", "-artifact-dir", store, "-n", "2000", "-workloads", "sibench"}, 0, "warmed 1 workloads", ""},
		{[]string{"inspect", store}, 0, "NXTA", ""},
		{[]string{"warm", "-n", "2000"}, 1, "", "warm needs -artifact-dir"},
		{[]string{"inspect"}, 1, "", "inspect needs file or directory arguments"},
		{[]string{"-workload", "no-such-app"}, 1, "", `unknown workload "no-such-app"`},
		{[]string{}, 1, "", "need -workload or -i"},
		{[]string{"-no-such-flag"}, 2, "", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code ||
			!strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) = %d, want %d\n--- stdout\n%s--- stderr\n%s", tc.args, code, tc.code, stdout.String(), stderr.String())
		}
	}
}
