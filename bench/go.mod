module rackjoin/bench

go 1.22

require rackjoin v0.0.0

replace rackjoin => ../
