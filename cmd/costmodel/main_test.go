package main

import (
	"os"
	"testing"

	"jitckpt/internal/clitest"
)

var costmodelBin string

func TestMain(m *testing.M) { os.Exit(clitest.Main(m, &costmodelBin)) }

func TestCLI(t *testing.T) {
	clitest.Run(t, costmodelBin, []clitest.Case{
		{Name: "unknown flag", Args: "-nope", Exit: 2, Want: []string{"flag provided but not defined: -nope"}},
		{Name: "malformed -o", Args: "-o cheap", Exit: 2, Want: []string{`invalid value "cheap" for flag -o`}},
		{Name: "BERT-L-PT constants", Args: "-o 5 -r 9.9 -m 0.418 -f 0.002", Want: []string{
			"Wasted GPU time vs scale", "16384", "User-level JIT beats optimal periodic checkpointing from N ="}},
	})
}
