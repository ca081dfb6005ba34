module revelation/benchmark

go 1.22

require revelation v0.0.0

replace revelation => ../
