module tightcps/benchmark

go 1.24

require tightcps v0.0.0

replace tightcps => ../
