module dps/benchmark

go 1.23

require dps v0.0.0

replace dps => ../
