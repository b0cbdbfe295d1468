package main

import (
	"os"
	"testing"

	"jitckpt/internal/clitest"
)

var jitsimBin string

func TestMain(m *testing.M) { os.Exit(clitest.Main(m, &jitsimBin)) }

func TestCLI(t *testing.T) {
	clitest.Run(t, jitsimBin, []clitest.Case{
		{Name: "unknown policy", Args: "-policy warp", Exit: 2, Want: []string{`unknown policy "warp"`}},
		{Name: "malformed -rs", Args: "-workload GPT2-8B -policy peer -rs 2x1", Exit: 2, Want: []string{`bad -rs "2x1"`}},
		{Name: "malformed -mix", Args: "-fail-rate 100 -mix gpu-hard:lots", Exit: 2, Want: []string{`bad weight "lots"`}},
		{Name: "malformed -fleet", Args: "-fleet 4jit", Exit: 2, Want: []string{`bad jobs group "4jit"`}},
		{Name: "transparent recovers a sticky error", Args: "-policy transparent -fail gpu-sticky -fail-iter 5 -iters 8", Want: []string{"completed:    true"}},
		{Name: "userjit recovers a lost GPU", Args: "-policy userjit -fail gpu-hard -fail-iter 5 -iters 8", Want: []string{"completed:    true"}},
	})
}
