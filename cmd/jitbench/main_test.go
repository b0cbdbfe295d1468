package main

import (
	"os"
	"testing"

	"jitckpt/internal/clitest"
)

var jitbenchBin string

func TestMain(m *testing.M) { os.Exit(clitest.Main(m, &jitbenchBin)) }

func TestCLI(t *testing.T) {
	clitest.Run(t, jitbenchBin, []clitest.Case{
		{Name: "unknown flag", Args: "-nope", Exit: 2, Want: []string{"flag provided but not defined: -nope"}},
		{Name: "malformed -table", Args: "-table five", Exit: 2, Want: []string{`invalid value "five" for flag -table`}},
		{Name: "unknown table", Args: "-table 99", Exit: 2, Want: []string{"no table 99: -table takes 1 to 14, or 0 for all"}},
		{Name: "malformed -policies", Args: "-table 9 -policies Warp", Exit: 2, Want: []string{`unknown policy "Warp"`}},
		{Name: "malformed -mix", Args: "-table 10 -mix gpu-hard:lots", Exit: 2, Want: []string{`bad weight "lots"`}},
		// Table 5 takes the transparent path: proxy, replay log, intercept.
		{Name: "table 5", Args: "-quick -table 5", Want: []string{"Table 5", "BERT-B-FT/V100x8", "GPT2-S/V100x8"}},
		{Name: "serve-check", Args: "-serve-check", Want: []string{
			"fleet sweep (table 12): IDENTICAL", "erasure sweep (table 13): IDENTICAL"}},
	})
}
