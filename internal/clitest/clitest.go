// Package clitest drives a command's built binary as a user would, so the
// cmd/* tests check exit codes and messages at the real surface.
package clitest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Main builds the main package in the current directory, runs the tests
// with *bin set to the binary's path, removes it and returns the exit code
// for TestMain to pass to os.Exit.
func Main(m *testing.M, bin *string) int {
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	*bin = filepath.Join(dir, "cmd")
	if out, err := exec.Command("go", "build", "-o", *bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// Case is one invocation: the argument line, the exit code it must end with,
// and substrings its combined stdout+stderr must and must not contain.
type Case struct {
	Name string
	Args string
	Exit int
	Want []string
	Not  []string
}

// Run executes every case against bin as a subtest.
func Run(t *testing.T, bin string, cases []Case) {
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			out, err := exec.Command(bin, strings.Fields(tc.Args)...).CombinedOutput()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.Exit {
				t.Errorf("%s: exit %d, want %d\n%s", tc.Args, exit, tc.Exit, out)
			}
			for _, want := range tc.Want {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s: output lacks %q\n%s", tc.Args, want, out)
				}
			}
			for _, not := range tc.Not {
				if strings.Contains(string(out), not) {
					t.Errorf("%s: output has %q\n%s", tc.Args, not, out)
				}
			}
		})
	}
}
