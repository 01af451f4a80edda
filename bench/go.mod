module sapsim/bench

go 1.24

require sapsim v0.0.0

replace sapsim => ../
