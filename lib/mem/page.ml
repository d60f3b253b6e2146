let shift = 12
let size = 1 lsl shift
let offset_mask = size - 1
let vpn_of_addr addr = addr lsr shift
let addr_of_vpn vpn = vpn lsl shift
let offset_of_addr addr = addr land offset_mask
let round_up n = (n + size - 1) land lnot offset_mask
let round_down n = n land lnot offset_mask
let is_aligned n = n land offset_mask = 0

let iter_chunks ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = offset_of_addr a in
    let chunk = min (len - !pos) (size - off) in
    f a off !pos chunk;
    pos := !pos + chunk
  done
