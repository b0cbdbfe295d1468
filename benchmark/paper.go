package main

import (
	"math"

	"jitckpt/internal/experiments"
)

// The paper's published measurements, in seconds: the "paper →" columns of
// EXPERIMENTS.md Tables 4-6 (EuroSys'24, Tables 4, 5 and 6). They are the
// reference the simulator's accuracy is stated against, so a change that
// speeds the simulator up by drifting its results shows as a paper_err_pct
// move, not as a win.
var (
	paperTable4Recovery = map[string]float64{
		"BERT-L-PT": 14.8, "BERT-B-FT": 10.1, "GPT2-S": 10.35, "GPT2-XL": 20.6,
		"GPT2-8B": 46.9, "GPT2-18B": 54.8, "T5-3B": 42.65, "ViT": 24.4,
	}
	paperTable5Recovery = map[string]float64{
		"BERT-B-FT/V100x8": 2.1, "GPT2-S/V100x8": 9.1, "GPT2-S-3D": 16.4,
		"PyramidNet/V100x8": 1.9, "BERT-B-FT/A100x4": 2.6, "GPT2-S/A100x4": 11.8,
	}
	// paperTable6 holds {healthy, failed} GPU recovery times.
	paperTable6 = map[string][2]float64{
		"BERT-B-FT/V100x8": {25.72, 21.02}, "GPT2-S/V100x8": {23.97, 20.85},
		"GPT2-S-3D": {23.07, 18.11}, "PyramidNet/V100x8": {38.42, 30.34},
		"BERT-B-FT/A100x4": {17.19, 9.09}, "GPT2-S/A100x4": {14.68, 8.55},
		"PyramidNet/A100x4": {28.79, 17.56},
	}
)

// paperError is the mean relative error, in percent, of the simulated
// recovery times against the paper's: Table 4 Recovery, Table 5 Recovery,
// Table 6 Healthy and Failed, over the models that were run. missing lists
// models with no embedded reference value.
func paperError(t4 []experiments.Table4Row, t5 []experiments.Table5Row, t6 []experiments.Table6Row) (pct float64, missing []string) {
	var sum float64
	n := 0
	add := func(ours, paper float64) {
		sum += math.Abs(ours-paper) / paper
		n++
	}
	for _, r := range t4 {
		if p, ok := paperTable4Recovery[r.Model]; ok {
			add(r.Recovery.Sec(), p)
		} else {
			missing = append(missing, "table4/"+r.Model)
		}
	}
	for _, r := range t5 {
		if p, ok := paperTable5Recovery[r.Model]; ok {
			add(r.Recovery.Sec(), p)
		} else {
			missing = append(missing, "table5/"+r.Model)
		}
	}
	for _, r := range t6 {
		if p, ok := paperTable6[r.Model]; ok {
			add(r.Healthy.Sec(), p[0])
			add(r.Failed.Sec(), p[1])
		} else {
			missing = append(missing, "table6/"+r.Model)
		}
	}
	if n == 0 {
		return 0, missing
	}
	return 100 * sum / float64(n), missing
}
