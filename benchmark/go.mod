module perpetualws/benchmark

go 1.24

require perpetualws v0.0.0

replace perpetualws => ../
