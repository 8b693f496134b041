(: copied: the listener reads $row again after putting it in the table :)
let $row := <tr><td>new</td></tr>
return (
  insert node $row into //table[@id = "t"],
  replace value of node //span[@id = "n"] with count($row/td)
),
(: adopted: the one reference is all that reads $view :)
let $view := <div class="view">{string(//title)}</div>
return replace node //div[@id = "content"]/* with $view,
(: copied, but not for this reason: the reference runs once per item :)
let $mark := <b/>
return for $li in //li return insert node $mark into $li
