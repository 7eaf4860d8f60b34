module craid/bench

go 1.24

require craid v0.0.0

replace craid => ../
