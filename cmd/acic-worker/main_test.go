package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes: argument errors come back from run as exit codes with
// a message on stderr, as main returns them, instead of an os.Exit from
// inside.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "-coord URL is required"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-coord", "http://127.0.0.1:1", "-fault-spec", "no-such-fault"}, 1, "-fault-spec"},
		{[]string{"-h"}, 0, "-coord"},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) = %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
	}
}
