# Pins bench_kernels' output checksums at the smoke size. bench_kernels
# already requires each kernel's checksum to agree across thread counts; this
# script also requires it to equal a committed value, so a change to any
# kernel's output fails ctest instead of passing a self-comparison. The sweep
# must have run exactly the listed kernels, each at every thread count.
# Invoked by CTest as
#   cmake -DJSON=<BENCH_kernels.json> -DN=<nodes>
#         -DEXPECTED=<kernel>=<hex>,<kernel>=<hex>,... -P kernel_checksums.cmake

cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)

if(NOT DEFINED JSON OR NOT DEFINED N OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "JSON, N and EXPECTED must be defined")
endif()

# bench_kernels writes the thread list on one line and one result object per
# line: {"kernel": "<name>", "n": <n>, "threads": <t>, ..., "checksum": "<hex>", ...}
file(READ ${JSON} doc)
if(NOT doc MATCHES "\"thread_counts\": \\[([0-9, ]*)\\]")
  message(FATAL_ERROR "${JSON} has no thread_counts")
endif()
string(REPLACE "," ";" thread_counts "${CMAKE_MATCH_1}")
file(STRINGS ${JSON} rows
     REGEX "\"kernel\": \"[a-z_0-9]+\", \"n\": ${N},.*\"checksum\"")
string(REPLACE "," ";" expected "${EXPECTED}")

set(failures "")
foreach(row IN LISTS rows)
  if(NOT row MATCHES "\"kernel\": \"([a-z_0-9]+)\", \"n\": ${N}, \"threads\": ([0-9]+),.*\"checksum\": \"([0-9a-f]+)\"")
    message(FATAL_ERROR "unreadable result row: ${row}")
  endif()
  if(NOT "${CMAKE_MATCH_1}=${CMAKE_MATCH_3}" IN_LIST expected)
    string(APPEND failures "  ${CMAKE_MATCH_1} n=${N} "
                           "threads=${CMAKE_MATCH_2}: ${CMAKE_MATCH_3}\n")
  endif()
endforeach()
list(LENGTH rows num_rows)
list(LENGTH expected num_kernels)
list(LENGTH thread_counts num_threads)
math(EXPR want_rows "${num_kernels} * ${num_threads}")
if(NOT num_rows EQUAL want_rows)
  string(APPEND failures "  ${num_rows} results at n=${N}, want ${num_kernels} "
                         "kernels x ${num_threads} thread counts\n")
endif()

if(failures)
  message(FATAL_ERROR "bench_kernels checksums differ from the pinned values "
                      "${EXPECTED}:\n${failures}")
endif()
message(STATUS "bench_kernels n=${N} checksums OK")
