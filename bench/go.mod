module vero/bench

go 1.24

require vero v0.0.0

replace vero => ../
