module jitckpt/benchmark

go 1.22

require jitckpt v0.0.0

replace jitckpt => ../
