module gengar/benchmark

go 1.22

require gengar v0.0.0

replace gengar => ../
