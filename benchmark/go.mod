module xorp/benchmark

go 1.24

require xorp v0.0.0

replace xorp => ../
