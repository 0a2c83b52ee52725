type driver = Swmr | Sticky | Peats

let all = [ ("swmr", Swmr); ("sticky", Sticky); ("peats", Peats) ]

let behaviors driver ~n ~keyring =
  let ident pid = Thc_crypto.Keyring.secret keyring ~pid in
  match driver with
  | Swmr ->
    let registers = Thc_sharedmem.Swmr.log_array ~n in
    fun ~pid app -> Swmr_rounds.behavior ~registers ~ident:(ident pid) app
  | Sticky ->
    let board = Sticky_rounds.create_board ~n in
    fun ~pid app -> Sticky_rounds.behavior ~board ~ident:(ident pid) app
  | Peats ->
    let space =
      Thc_sharedmem.Peats.create ~policy:Thc_sharedmem.Peats.owned_field_policy
    in
    fun ~pid app -> Peats_rounds.behavior ~space ~n ~ident:(ident pid) app
