let put_be32 buf v = Buffer.add_int32_be buf v
let put_be64 buf v = Buffer.add_int64_be buf v

let set_be32 b off v =
  if off < 0 || off + 4 > Bytes.length b then invalid_arg "Wire.set_be32: short buffer";
  Bytes.set_int32_be b off v

let set_be64 b off v =
  if off < 0 || off + 8 > Bytes.length b then invalid_arg "Wire.set_be64: short buffer";
  Bytes.set_int64_be b off v

let get_be32_bytes b off =
  if off < 0 || off + 4 > Bytes.length b then
    invalid_arg "Wire.get_be32_bytes: short input";
  Bytes.get_int32_be b off

let get_be64_bytes b off =
  if off < 0 || off + 8 > Bytes.length b then
    invalid_arg "Wire.get_be64_bytes: short input";
  Bytes.get_int64_be b off

let get_be32 s off =
  if off < 0 || off + 4 > String.length s then invalid_arg "Wire.get_be32: short input";
  String.get_int32_be s off

let get_be64 s off =
  if off < 0 || off + 8 > String.length s then invalid_arg "Wire.get_be64: short input";
  String.get_int64_be s off
