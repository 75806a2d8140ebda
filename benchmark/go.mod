module onepipe/benchmark

go 1.22

require onepipe v0.0.0

replace onepipe => ../
