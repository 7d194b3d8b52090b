module remo/benchmark

go 1.22

require remo v0.0.0

replace remo => ../
