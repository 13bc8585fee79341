#!/bin/sh
# The transport pair as deployed, over a real Unix socket: collector_daemon
# in the background, remote_fleet_query streaming its workload into it and
# querying it remotely. Passes when both exit 0 and the daemon's exit dump
# (--metrics) counts every record the workload ships.
#
#   sh daemon_pair.sh COLLECTOR_DAEMON REMOTE_FLEET_QUERY SOCKET_PATH
set -u
daemon=$1
client=$2
sock=$3
dump="$sock.metrics"
rm -f "$sock" "$dump"

"$daemon" --listen "unix:$sock" --idle-exit-ms 500 --metrics --quiet > "$dump" &
pid=$!
tries=0
while [ ! -S "$sock" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ] || ! kill -0 "$pid" 2> /dev/null; then
    echo "daemon_pair: collector_daemon never listened on $sock" >&2
    kill "$pid" 2> /dev/null
    exit 1
  fi
  sleep 0.1
done

"$client" --connect "unix:$sock"
client_status=$?
# The daemon exits by itself once its client has been gone for 500 ms; a
# client that never connected leaves it serving, so stop it then.
[ "$client_status" -eq 0 ] || kill "$pid" 2> /dev/null
wait "$pid"
daemon_status=$?
cat "$dump"

if [ "$client_status" -ne 0 ] || [ "$daemon_status" -ne 0 ]; then
  echo "daemon_pair: remote_fleet_query exit $client_status," \
       "collector_daemon exit $daemon_status" >&2
  exit 1
fi
if ! grep -qx 'rlir_agent_records_ingested_total 3432' "$dump"; then
  echo "daemon_pair: the daemon's dump does not count the 3432 records shipped" >&2
  exit 1
fi
