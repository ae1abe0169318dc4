type kind = Types.protocol = Adaptive | Msi | Mesi

let all = [ Adaptive; Msi; Mesi ]

let to_string = function Adaptive -> "adaptive" | Msi -> "msi" | Mesi -> "mesi"

let of_string = function
  | "adaptive" -> Ok Adaptive
  | "msi" -> Ok Msi
  | "mesi" -> Ok Mesi
  | other ->
      Error
        (Printf.sprintf "unknown protocol %S (expected adaptive, msi, or mesi)" other)
