# Injected into the repository's own CMake configure through
# -DCMAKE_PROJECT_INCLUDE=<this file> (see perfbench/run.py). The load
# generator target is defined at the end of the top-level CMakeLists.txt
# (a deferred call), so it links the repository's libraries as targets and
# compiles with every flag the repository sets, without any repository build
# file naming it.
include_guard(GLOBAL)

set(PERFBENCH_LOADGEN_DIR "${CMAKE_CURRENT_LIST_DIR}/../loadgen")

function(perfbench_add_loadgen)
  set(dir "${PERFBENCH_LOADGEN_DIR}")
  add_executable(perfbench_loadgen
    ${dir}/main.cpp ${dir}/fleet.cpp ${dir}/layers.cpp ${dir}/load.cpp ${dir}/workloads.cpp)
  target_link_libraries(perfbench_loadgen PRIVATE cnn2fpga Threads::Threads)
  target_compile_options(perfbench_loadgen PRIVATE -Wall -Wextra -Wshadow)
  set_target_properties(perfbench_loadgen PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER CALL perfbench_add_loadgen)
