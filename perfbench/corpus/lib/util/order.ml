let by key cmp a b = cmp (key a) (key b)

let desc cmp a b = cmp b a

let pair ca cb (a1, b1) (a2, b2) =
  let c = ca a1 a2 in
  if c <> 0 then c else cb b1 b2

let triple ca cb cc (a1, b1, c1) (a2, b2, c2) =
  let c = ca a1 a2 in
  if c <> 0 then c
  else
    let c = cb b1 b2 in
    if c <> 0 then c else cc c1 c2

let array cmp a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then Int.compare la lb
    else
      let c = cmp a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let int_pair p q = pair Int.compare Int.compare p q
