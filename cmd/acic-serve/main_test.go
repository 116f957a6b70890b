package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes drives the daemon through run, as main does: every
// failure is an exit code returned to main, never an os.Exit from inside,
// so the deferred signal-handler release runs on every exit. An undefined
// flag exits 2; a bad flag value, a bad -fault-spec and an unusable
// -listen address each exit 1 with a message on stderr.
func TestRunExitCodes(t *testing.T) {
	for _, env := range []string{"ACIC_ARTIFACT_DIR", "ACIC_CACHE_DIR", "ACIC_FAULT_SPEC"} {
		t.Setenv(env, "")
	}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // substring of stderr
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-sample-sets", "3"}, 1, "acic-serve:"},
		{[]string{"-fault-spec", "no-such-fault"}, 1, "acic-serve: -fault-spec:"},
		{[]string{"-n", "2000", "-listen", "127.0.0.1:-1"}, 1, "acic-serve: -listen 127.0.0.1:-1:"},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) = %d, want %d\n--- stderr\n%s", tc.args, code, tc.code, stderr.String())
		}
	}
}
