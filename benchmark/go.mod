module pacon/benchmark

go 1.22

require pacon v0.0.0

replace pacon => ../
