module modelnet/benchmark

go 1.21

require modelnet v0.0.0

replace modelnet => ../
