module github.com/sparsewide/iva/benchmark

go 1.22

require github.com/sparsewide/iva v0.0.0

replace github.com/sparsewide/iva => ../
