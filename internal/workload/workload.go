// Package workload is the catalogue of the paper's experimental workloads
// (Table 2) plus the per-workload cost constants the simulator needs.
//
// Calibration: the simulator's free parameters (effective checkpoint
// bandwidth, NCCL bootstrap cost, CRIU snapshot time, fixed job-init time)
// are derived from the paper's own measurements in Tables 4–7, so the
// reproduction harness regenerates those tables mechanically rather than
// echoing constants: checkpoint time emerges from state size ÷ bandwidth,
// recovery time from teardown + rendezvous + replay, and so on. State
// sizes are computed from parameter counts at 16 bytes/parameter
// (fp16 weights + fp32 Adam moments + fp32 master copy, the Megatron
// mixed-precision layout), divided across pipeline/tensor/FSDP shards.
package workload

import (
	"fmt"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cuda"
	"jitckpt/internal/nccl"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// BytesPerParam is the modelled training-state footprint per parameter.
const BytesPerParam = 16

// Workload is one Table 2 entry (or a GPU-type variant used by the
// transparent-recovery experiments of Tables 5–6).
type Workload struct {
	Name      string
	GPU       string // "V100-32GB" or "A100-80GB"
	ParamsB   float64
	Nodes     int
	PerNode   int
	Topo      train.Topology
	Framework string

	// Minibatch is the measured minibatch time (Tables 4–5).
	Minibatch vclock.Time

	// CkptTarget and RestoreTarget are the paper's measured per-rank
	// checkpoint and restore times (Table 4); the effective bandwidths
	// and fixed init times below are derived from them. Zero targets get
	// defaults.
	CkptTarget    vclock.Time
	RestoreTarget vclock.Time

	// NCCLInitBase/PerRank calibrate per-communicator bootstrap so that a
	// worker's total re-initialization (one world group plus its DP/TP/PP
	// or FSDP groups) matches Table 7's "recreate NCCL communicators"
	// step. Frameworks differ wildly: Megatron-DeepSpeed bootstrap is an
	// order of magnitude slower than HuggingFace/DDP.
	NCCLInitBase    vclock.Time
	NCCLInitPerRank vclock.Time

	// Teardown is Table 7's "delete communicators and GPU handles" step.
	Teardown vclock.Time

	// CRIU is the worker-process CPU checkpoint+restore time for hard
	// errors (§4.3, Table 6).
	CRIU vclock.Time

	// PeerLinkBW is the modelled point-to-point bandwidth (bytes/second)
	// from a rank to a peer node's CPU memory, used by the peer-shelter
	// replication tier. 0 selects the default (100 Gb/s-class datacenter
	// Ethernet/IB, ~12.5 GB/s — the link the gradient all-reduce already
	// crosses, which is what lets replication piggyback on it).
	PeerLinkBW float64

	// Logical model geometry for the real-math simulation.
	Layers, Hidden int
}

// GPUs returns the total GPU count.
func (w Workload) GPUs() int { return w.Nodes * w.PerNode }

// shardDivisor returns how many ways parameter state is divided per GPU.
func (w Workload) shardDivisor() int {
	div := w.Topo.P * w.Topo.T
	if w.Topo.FSDP() {
		div *= w.Topo.FSDPShard
	}
	return div
}

// StateBytesPerGPU is the parameter+optimizer footprint of one GPU.
func (w Workload) StateBytesPerGPU() int64 {
	return int64(w.ParamsB * 1e9 * BytesPerParam / float64(w.shardDivisor()))
}

// CkptBandwidth is the effective end-to-end checkpoint write bandwidth
// (GPU→host→store including serialization), derived from the Table 4
// measurement; ~1 GB/s default matches torch.save-class paths.
func (w Workload) CkptBandwidth() float64 {
	if w.CkptTarget <= 0 {
		return 1e9
	}
	return float64(w.StateBytesPerGPU()) / w.CkptTarget.Sec()
}

// RestoreBandwidth is the effective checkpoint read bandwidth (reads skip
// serialization, so ~2× the write path).
func (w Workload) RestoreBandwidth() float64 { return 2 * w.CkptBandwidth() }

// RestoreInit is the fixed job (re)initialization time inside the
// measured restore: everything that is not moving checkpoint bytes — the
// target minus the store read and the host-to-device copy.
func (w Workload) RestoreInit() vclock.Time {
	if w.RestoreTarget <= 0 {
		return 8 * vclock.Second
	}
	bytes := float64(w.StateBytesPerGPU())
	read := vclock.Time(bytes / w.RestoreBandwidth() * float64(vclock.Second))
	h2d := vclock.Time(bytes / w.CUDAParams().H2DBandwidth * float64(vclock.Second))
	init := w.RestoreTarget - read - h2d
	if init < 0 {
		init = 0
	}
	return init
}

// PeerLinkBandwidth returns the rank→peer-CPU-memory streaming bandwidth
// for the peer-shelter tier.
func (w Workload) PeerLinkBandwidth() float64 {
	if w.PeerLinkBW > 0 {
		return w.PeerLinkBW
	}
	return 12.5e9
}

// NCCLParams returns the interconnect parameters for this workload.
func (w Workload) NCCLParams() nccl.Params {
	p := nccl.DefaultParams()
	if w.NCCLInitBase > 0 {
		p.CommInitBase = w.NCCLInitBase
	}
	if w.NCCLInitPerRank > 0 {
		p.CommInitPerRank = w.NCCLInitPerRank
	}
	return p
}

// CUDAParams returns the device parameters (PCIe gen for the GPU type).
func (w Workload) CUDAParams() cuda.Params {
	p := cuda.DefaultParams()
	if w.GPU == "V100-32GB" {
		// PCIe gen3.
		p.H2DBandwidth = 12e9
		p.D2HBandwidth = 12e9
	}
	return p
}

// Checkpoint path decomposition: the calibrated end-to-end checkpoint
// bandwidth splits into three series legs — the PCIe D2H copy, CPU-side
// serialization (torch.save-class pickling), and the persistent-store
// write. Table 3 shows saving to tmpfs (which skips only the store write)
// shaves merely ~15% off PC_disk, so the store write gets a 0.15 share of
// the end-to-end time and serialization absorbs the rest after PCIe.
const storeWriteShare = 0.15

// SerializeBW returns the CPU serialization throughput in bytes/second.
func (w Workload) SerializeBW() float64 {
	bw := w.CkptBandwidth()
	pcie := w.CUDAParams().D2HBandwidth
	inv := (1-storeWriteShare)/bw - 1/pcie
	if inv <= 0 {
		return 1e15 // serialization negligible for this workload
	}
	return 1 / inv
}

// CkptStoreParams returns store parameters whose write path realizes the
// store-write share of the calibrated checkpoint bandwidth (PCIe and
// serialization are charged separately along the save path).
func (w Workload) CkptStoreParams() checkpoint.StoreParams {
	storeBW := w.CkptBandwidth() / storeWriteShare
	return checkpoint.StoreParams{WriteBW: storeBW, ReadBW: w.RestoreBandwidth(), Latency: vclock.Millisecond}
}

// TrainModel returns the logical training model with modelled state sizes
// attached (params:optimizer split 1:2, the Adam ratio).
func (w Workload) TrainModel() train.ModelSpec {
	state := w.StateBytesPerGPU()
	return train.ModelSpec{
		Layers:           w.Layers,
		Hidden:           w.Hidden,
		Seed:             42,
		ParamBytesPerGPU: state / 3,
		OptBytesPerGPU:   state * 2 / 3,
	}
}

// StepTime returns per-layer kernel durations matching the measured
// minibatch time.
func (w Workload) StepTime() train.StepTime {
	return train.Uniform(w.Minibatch, w.Layers)
}

// Optimizer returns the optimizer spec (Adam everywhere, as in the
// paper's jobs).
func (w Workload) Optimizer() train.OptimizerSpec { return train.DefaultOptimizer() }

const (
	sec = vclock.Second
	ms  = vclock.Millisecond
)

// Tiny returns a synthetic seconds-scale workload of the given cluster
// shape and model geometry: 50 ms minibatches, sub-second checkpoints and
// fast communicator bootstrap, so sweeps, fleets of hundreds of tenants and
// tests stay cheap while exercising the same recovery machinery the
// catalogue workloads use.
func Tiny(name, framework string, nodes, perNode int, topo train.Topology, paramsB float64, layers, hidden int) Workload {
	return Workload{
		Name: name, GPU: "A100-80GB", ParamsB: paramsB, Nodes: nodes, PerNode: perNode,
		Topo: topo, Framework: framework,
		Minibatch: 50 * ms, CkptTarget: vclock.Seconds(0.5), RestoreTarget: vclock.Seconds(1),
		NCCLInitBase: 200 * ms, NCCLInitPerRank: 5 * ms, Teardown: 100 * ms,
		CRIU: sec, Layers: layers, Hidden: hidden,
	}
}

// Catalog returns every workload: the ten Table 2 entries plus the
// GPU-type variants Tables 5–6 measure.
func Catalog() []Workload {
	return []Workload{
		{
			Name: "GPT2-S", GPU: "A100-80GB", ParamsB: 0.124, Nodes: 1, PerNode: 4,
			Topo: train.Topology{D: 4, P: 1, T: 1}, Framework: "Megatron-DS",
			Minibatch: 629 * ms, CkptTarget: vclock.Seconds(3.8), RestoreTarget: vclock.Seconds(7.2),
			NCCLInitBase: vclock.Seconds(5.15), NCCLInitPerRank: 25 * ms, Teardown: 779 * ms,
			CRIU: 8 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "GPT2-S-3D", GPU: "V100-32GB", ParamsB: 0.124, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 2, P: 2, T: 2}, Framework: "Megatron-DS",
			Minibatch: 209 * ms, CkptTarget: vclock.Seconds(1.2), RestoreTarget: vclock.Seconds(6.5),
			NCCLInitBase: vclock.Seconds(3.80), NCCLInitPerRank: 25 * ms, Teardown: 831 * ms,
			CRIU: 6 * sec, Layers: 4, Hidden: 8,
		},
		{
			Name: "GPT2-XL", GPU: "V100-32GB", ParamsB: 1.5, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 2, P: 2, T: 2}, Framework: "Megatron-DS",
			Minibatch: 2632 * ms, CkptTarget: vclock.Seconds(6.7), RestoreTarget: vclock.Seconds(14.0),
			NCCLInitBase: vclock.Seconds(3.80), NCCLInitPerRank: 25 * ms, Teardown: 850 * ms,
			CRIU: 16 * sec, Layers: 4, Hidden: 8,
		},
		{
			Name: "GPT2-8B", GPU: "V100-32GB", ParamsB: 8.3, Nodes: 2, PerNode: 8,
			Topo: train.Topology{D: 2, P: 4, T: 2}, Framework: "Megatron-DS",
			Minibatch: 2953 * ms, CkptTarget: vclock.Seconds(18.8), RestoreTarget: vclock.Seconds(28.6),
			NCCLInitBase: vclock.Seconds(3.80), NCCLInitPerRank: 25 * ms, Teardown: 900 * ms,
			CRIU: 18 * sec, Layers: 4, Hidden: 8,
		},
		{
			Name: "GPT2-18B", GPU: "V100-32GB", ParamsB: 18, Nodes: 4, PerNode: 8,
			Topo: train.Topology{D: 2, P: 4, T: 4}, Framework: "Megatron-DS",
			Minibatch: 3474 * ms, CkptTarget: vclock.Seconds(20.5), RestoreTarget: vclock.Seconds(34.2),
			NCCLInitBase: vclock.Seconds(3.80), NCCLInitPerRank: 25 * ms, Teardown: 950 * ms,
			CRIU: 20 * sec, Layers: 4, Hidden: 8,
		},
		{
			Name: "BERT-L-PT", GPU: "V100-32GB", ParamsB: 0.334, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 8, P: 1, T: 1}, Framework: "Megatron",
			Minibatch: 418 * ms, CkptTarget: vclock.Seconds(5.0), RestoreTarget: vclock.Seconds(9.9),
			NCCLInitBase: vclock.Seconds(1.20), NCCLInitPerRank: 25 * ms, Teardown: 850 * ms,
			CRIU: 16 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "BERT-B-FT", GPU: "V100-32GB", ParamsB: 0.110, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 8, P: 1, T: 1}, Framework: "HuggingFace",
			Minibatch: 416 * ms, CkptTarget: vclock.Seconds(1.4), RestoreTarget: vclock.Seconds(8.8),
			NCCLInitBase: vclock.Seconds(0.33), NCCLInitPerRank: 25 * ms, Teardown: 1013 * ms,
			CRIU: 17 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "T5-3B", GPU: "A100-80GB", ParamsB: 3, Nodes: 2, PerNode: 4,
			Topo: train.Topology{D: 8, P: 1, T: 1, FSDPShard: 4}, Framework: "PyTorch-FSDP",
			Minibatch: 498 * ms, CkptTarget: vclock.Seconds(7.6), RestoreTarget: vclock.Seconds(35.25),
			NCCLInitBase: vclock.Seconds(1.00), NCCLInitPerRank: 25 * ms, Teardown: 900 * ms,
			CRIU: 12 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "ViT", GPU: "V100-32GB", ParamsB: 0.632, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 8, P: 1, T: 1}, Framework: "PyTorch",
			Minibatch: 292 * ms, CkptTarget: vclock.Seconds(4.6), RestoreTarget: vclock.Seconds(20.2),
			NCCLInitBase: vclock.Seconds(0.33), NCCLInitPerRank: 25 * ms, Teardown: 850 * ms,
			CRIU: 15 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "PyramidNet", GPU: "A100-80GB", ParamsB: 0.24, Nodes: 1, PerNode: 4,
			Topo: train.Topology{D: 4, P: 1, T: 1}, Framework: "PyTorch",
			Minibatch: 451 * ms, CkptTarget: vclock.Seconds(3.1), RestoreTarget: vclock.Seconds(12),
			NCCLInitBase: vclock.Seconds(0.45), NCCLInitPerRank: 25 * ms, Teardown: 850 * ms,
			CRIU: 10 * sec, Layers: 2, Hidden: 8,
		},

		// GPU-type variants used by Tables 5–6.
		{
			Name: "BERT-B-FT/V100x8", GPU: "V100-32GB", ParamsB: 0.110, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 8, P: 1, T: 1}, Framework: "HuggingFace",
			Minibatch: 279 * ms, CkptTarget: vclock.Seconds(1.4), RestoreTarget: vclock.Seconds(8.8),
			NCCLInitBase: vclock.Seconds(0.33), NCCLInitPerRank: 25 * ms, Teardown: 1013 * ms,
			CRIU: 22 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "GPT2-S/V100x8", GPU: "V100-32GB", ParamsB: 0.124, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 8, P: 1, T: 1}, Framework: "Megatron-DS",
			Minibatch: 270 * ms, CkptTarget: vclock.Seconds(3.8), RestoreTarget: vclock.Seconds(7.2),
			NCCLInitBase: vclock.Seconds(3.97), NCCLInitPerRank: 25 * ms, Teardown: 779 * ms,
			CRIU: 10 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "PyramidNet/V100x8", GPU: "V100-32GB", ParamsB: 0.24, Nodes: 1, PerNode: 8,
			Topo: train.Topology{D: 8, P: 1, T: 1}, Framework: "PyTorch",
			Minibatch: 315 * ms, CkptTarget: vclock.Seconds(3.1), RestoreTarget: vclock.Seconds(12),
			NCCLInitBase: vclock.Seconds(0.32), NCCLInitPerRank: 25 * ms, Teardown: 850 * ms,
			CRIU: 32 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "BERT-B-FT/A100x4", GPU: "A100-80GB", ParamsB: 0.110, Nodes: 1, PerNode: 4,
			Topo: train.Topology{D: 4, P: 1, T: 1}, Framework: "HuggingFace",
			Minibatch: 79 * ms, CkptTarget: vclock.Seconds(1.0), RestoreTarget: vclock.Seconds(6),
			NCCLInitBase: vclock.Seconds(0.75), NCCLInitPerRank: 25 * ms, Teardown: 900 * ms,
			CRIU: 14 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "GPT2-S/A100x4", GPU: "A100-80GB", ParamsB: 0.124, Nodes: 1, PerNode: 4,
			Topo: train.Topology{D: 4, P: 1, T: 1}, Framework: "Megatron-DS",
			Minibatch: 343 * ms, CkptTarget: vclock.Seconds(3.0), RestoreTarget: vclock.Seconds(6.5),
			NCCLInitBase: vclock.Seconds(5.15), NCCLInitPerRank: 25 * ms, Teardown: 800 * ms,
			CRIU: 2 * sec, Layers: 2, Hidden: 8,
		},
		{
			Name: "PyramidNet/A100x4", GPU: "A100-80GB", ParamsB: 0.24, Nodes: 1, PerNode: 4,
			Topo: train.Topology{D: 4, P: 1, T: 1}, Framework: "PyTorch",
			Minibatch: 451 * ms, CkptTarget: vclock.Seconds(3.1), RestoreTarget: vclock.Seconds(12),
			NCCLInitBase: vclock.Seconds(0.45), NCCLInitPerRank: 25 * ms, Teardown: 850 * ms,
			CRIU: 23 * sec, Layers: 2, Hidden: 8,
		},
	}
}

// ByName looks a workload up by name.
func ByName(name string) (Workload, error) {
	for _, w := range Catalog() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Table2Names returns the ten primary Table 2 workloads, in paper order.
func Table2Names() []string {
	return []string{
		"GPT2-S", "GPT2-S-3D", "GPT2-XL", "GPT2-8B", "GPT2-18B",
		"BERT-L-PT", "BERT-B-FT", "T5-3B", "ViT", "PyramidNet",
	}
}
