module tlevelindex/bench

go 1.22

require tlevelindex v0.0.0

replace tlevelindex => ../
