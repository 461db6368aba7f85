package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain runs the command itself when cliEnv is set, so a test can
// drive the real flag parsing and error printing in a child process.
func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

const cliEnv = "SSRANK_CLI_CHILD"

// TestErrorLine: every refused invocation prints exactly one
// "ssrank: ..." line and exits 2, whether the error comes from the
// facade (whose messages already name the package), from a replication
// sweep or from the CLI's own flag parsing.
func TestErrorLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "16", "-protocol", "interval", "-epsilon", "-1"}, "ssrank: Epsilon must be finite and >= 0, got -1\n"},
		{[]string{"-n", "16", "-protocol", "interval", "-epsilon", "-1", "-trials", "2"}, "ssrank: Epsilon must be finite and >= 0, got -1\n"},
		{[]string{"-n", "16", "-shards", "many"}, "ssrank: -shards must be a non-negative count or 'auto' (got \"many\")\n"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), cliEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2", tc.args, err)
		}
		if stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q; want stderr %q only", tc.args, stderr.String(), stdout.String(), tc.want)
		}
	}
}
