module qcc/benchmark

go 1.22

require qcc v0.0.0

replace qcc => ../
