module sealdb/benchmark

go 1.24

require sealdb v0.0.0

replace sealdb => ../
