module deepsecure/bench

go 1.23

require deepsecure v0.0.0

replace deepsecure => ../
