package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// jitsimBin is the binary TestMain builds once; the tests drive it as a
// user would, so exit codes and messages are checked at the real surface.
var jitsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jitsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	jitsimBin = filepath.Join(dir, "jitsim")
	if out, err := exec.Command("go", "build", "-o", jitsimBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build jitsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		exit int
		want string // substring of combined stdout+stderr
	}{
		{"unknown policy", "-policy warp", 2, `unknown policy "warp"`},
		{"malformed -rs", "-workload GPT2-8B -policy peer -rs 2x1", 2, `bad -rs "2x1"`},
		{"malformed -mix", "-fail-rate 100 -mix gpu-hard:lots", 2, `bad weight "lots"`},
		{"malformed -fleet", "-fleet 4jit", 2, `bad jobs group "4jit"`},
		{"transparent recovers a sticky error", "-policy transparent -fail gpu-sticky -fail-iter 5 -iters 8", 0, "completed:    true"},
		{"userjit recovers a lost GPU", "-policy userjit -fail gpu-hard -fail-iter 5 -iters 8", 0, "completed:    true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(jitsimBin, strings.Fields(tc.args)...).CombinedOutput()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.exit {
				t.Errorf("jitsim %s: exit %d, want %d\n%s", tc.args, exit, tc.exit, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("jitsim %s: output lacks %q\n%s", tc.args, tc.want, out)
			}
		})
	}
}
