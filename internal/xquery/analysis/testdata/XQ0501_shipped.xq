declare variable $year external;
(: shipped: every part of the FLWOR is about one document at a time :)
for $a in collection("/db/articles/j3")/article
where $a/@year = "1990"
return string($a/@id),
(: shipped: a count distributes over the documents :)
count(collection("/db/articles/j3")//ref[@year = "1990"]),
(: not shipped: the where reads a variable from outside the FLWOR :)
for $a in collection("/db/articles/j3")/article
where $a/@year = $year
return string($a/@id)
