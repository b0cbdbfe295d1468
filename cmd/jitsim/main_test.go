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
		{Name: "single-job flag under -fleet", Args: "-fleet 2xuserjit -fail gpu-hard", Exit: 2, Want: []string{"-fail is a single-job flag"}},
		{Name: "single-job flags under -fleet, first named", Args: "-fleet 2xuserjit -policy warp -workload nope -chaos -rs 9,9", Exit: 2, Want: []string{"-chaos is a single-job flag"}},
		{Name: "fleet flag without -fleet", Args: "-policy userjit -repair 5", Exit: 2, Want: []string{"-repair is a fleet flag"}},
		{Name: "fleet geometry without -fleet", Args: "-fleet-rack 2 -fleet-nodes 8", Exit: 2, Want: []string{"-fleet-nodes is a fleet flag"}},
		{Name: "negative -loss", Args: "-loss -3", Exit: 2, Want: []string{"-loss must not be negative"}},
		{Name: "-chaos-p above 1", Args: "-policy userjit -chaos -chaos-p 1.5", Exit: 2, Want: []string{"-chaos-p must be within [0,1]"}},
		{Name: "negative -chaos-p", Args: "-policy userjit -chaos -chaos-p -0.1", Exit: 2, Want: []string{"-chaos-p must be within [0,1]"}},
		{Name: "negative -fail-rate", Args: "-fail-rate -5", Exit: 2, Want: []string{"-fail-rate must not be negative"}},
		{Name: "negative -fail-rate under -fleet", Args: "-fleet 2xuserjit -fail-rate -5", Exit: 2, Want: []string{"-fail-rate must not be negative"}},
		{Name: "negative -rack", Args: "-rack -1", Exit: 2, Want: []string{"-rack must not be negative"}},
		{Name: "negative -fail-frac", Args: "-fail gpu-hard -fail-frac -0.5", Exit: 2, Want: []string{"-fail-frac must not be negative"}},
		{Name: "-fail-iter at -iters", Args: "-fail gpu-hard -fail-iter 8 -iters 8", Exit: 2, Want: []string{"-fail-iter must be below -iters"}},
		{Name: "-fail-iter beyond -iters without -fail", Args: "-policy userjit -fail-iter 99 -iters 4", Want: []string{"completed:    true"}},
		{Name: "transparent recovers a sticky error", Args: "-policy transparent -fail gpu-sticky -fail-iter 5 -iters 8", Want: []string{"completed:    true"}},
		{Name: "userjit recovers a lost GPU", Args: "-policy userjit -fail gpu-hard -fail-iter 5 -iters 8", Want: []string{"completed:    true"}},
	})
}
