fattree:4:2/contra/load0.4/steady/seed2#f5b7b3efb0901069
fattree:4:2/ecmp/load0.4/steady/seed1#4bd4b0e07c5128d9
fattree:4:2/ecmp/load0.4/steady/seed2#c1141a35227a9824
