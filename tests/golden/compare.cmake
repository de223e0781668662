# Golden-output check: runs BIN with ARGS (one space-separated string),
# compares its stdout with the committed GOLDEN file byte for byte, and on
# a mismatch names the first differing line.
#
#   cmake -DBIN=<binary> -DARGS="<args>" -DGOLDEN=<file> -P compare.cmake
#
# The goldens pin the paper's tables and figures (Table I, Figs. 3-7) and
# the systematic-code and GF(256) ablations. Regenerate one only with a
# reason stated in CHANGES.md:
#
#   build/bench/<binary> [args] > tests/golden/<binary>.txt
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both outputs line by line to the first difference.
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" e_end)
  string(FIND "${actual}" "\n" a_end)
  string(SUBSTRING "${expected}" 0 ${e_end} e_line)
  string(SUBSTRING "${actual}" 0 ${a_end} a_line)
  if(NOT e_line STREQUAL a_line OR e_end EQUAL -1 OR a_end EQUAL -1)
    break()
  endif()
  math(EXPR e_end "${e_end} + 1")
  math(EXPR a_end "${a_end} + 1")
  string(SUBSTRING "${expected}" ${e_end} -1 expected)
  string(SUBSTRING "${actual}" ${a_end} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
foreach(side e a)
  if(${side}_end EQUAL -1)
    string(APPEND ${side}_line "<end of output>")
  endif()
endforeach()
message(FATAL_ERROR "output differs from ${GOLDEN} at line ${line}\n"
                    "  expected: ${e_line}\n"
                    "  actual:   ${a_line}")
